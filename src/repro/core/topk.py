"""The canonical top-k heap shared by every top-k algorithm (Section 4.2).

The grid top-k algorithms (Algorithm 4 and its variants) and
TOPK-S-PPJ-D are the plans of :mod:`repro.exec.plans`; kNN uses the heap
too.  The grid variants differ only in user order and in one extra
pruning step:

* **TOPK-S-PPJ-F** — users ascending by object-set size, so the expensive
  large users are evaluated when the threshold is already high;
* **TOPK-S-PPJ-S** — users ordered by a popularity heuristic (objects in
  spatially dense, many-user areas first) hoping to raise the threshold
  faster; the paper finds the extra statistics cost more than they save;
* **TOPK-S-PPJ-P** — ascending size plus a per-user upper bound
  ``sigma_bar_u`` (Lemma 2) that can dismiss *all* pairs of a user with
  previously selected users in one test.

Zero-score pairs never qualify: a pair with no matching object at all is
not a meaningful answer, so when fewer than ``k`` positive pairs exist the
result is shorter than ``k`` (the exhaustive oracle behaves identically).

Score ties at the k-th position are broken *deterministically* with the
canonical pair order of :func:`repro.core.query.pair_sort_key`: among
equal scores the lexicographically smallest pair wins.  Definition 2
permits any tie-break, but a canonical one makes every top-k algorithm —
including the oracle and every backend of the execution engine — return
byte-identical results, which the differential tests rely on.  The bound
pruning therefore uses *strict* comparisons (``bound < threshold``
prunes, equality refines): a candidate whose score exactly ties the
current k-th best may still displace a canonically larger pair.
"""

from __future__ import annotations

import heapq
from typing import List

from .query import UserPair, pair_sort_key

__all__ = ["_TopKHeap"]


class _HeapItem:
    """Heap adapter: the *least preferred* pair sorts first.

    ``heapq`` keeps a min-heap, so inverting the canonical order puts the
    pair that should be evicted next at the root.
    """

    __slots__ = ("pair", "sort_key")

    def __init__(self, pair: UserPair):
        self.pair = pair
        self.sort_key = pair_sort_key(pair)

    def __lt__(self, other: "_HeapItem") -> bool:
        return self.sort_key > other.sort_key


class _TopKHeap:
    """Fixed-capacity heap of the k canonically best pairs seen so far.

    Preference follows :func:`repro.core.query.pair_sort_key`: higher
    score first, ties broken by the smaller pair — so the retained set
    (and therefore the final result) is independent of offer order.
    """

    def __init__(self, k: int):
        self.k = k
        self._heap: List[_HeapItem] = []

    @property
    def threshold(self) -> float:
        """Current user-similarity threshold: the k-th best score, or 0."""
        if len(self._heap) < self.k:
            return 0.0
        return self._heap[0].pair.score

    def offer(self, pair: UserPair) -> None:
        """Insert ``pair`` if it is canonically preferable to the worst kept."""
        item = _HeapItem(pair)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, item)
        elif self._heap[0] < item:
            heapq.heapreplace(self._heap, item)

    def results(self) -> List[UserPair]:
        """Pairs in canonical order (descending score, ties by pair)."""
        return [
            item.pair for item in sorted(self._heap, key=lambda it: it.sort_key)
        ]
