"""Datasets prepared for serving: fingerprints and warm index caches.

A :class:`PreparedDataset` wraps one :class:`~repro.core.model.STDataset`
with the indexes the join algorithms need, built lazily on first use and
kept for the lifetime of the server:

* one ``with_tokens=True`` :class:`~repro.stindex.stgrid.STGridIndex`
  per distinct ``eps_loc`` — a single grid serves S-PPJ-C/B, S-PPJ-F,
  the grid top-k family and knn; its candidate table is built by the
  first filter query and then shared by all of them;
* one :class:`~repro.stindex.leaf_index.STLeafIndex` per distinct
  ``(eps_loc, fanout, partitioner)`` for the S-PPJ-D family.

Versioning is by *content*: :meth:`repro.core.model.STDataset.fingerprint`
hashes the objects themselves, so re-registering an identical file is a
no-op and every cached result or EXPLAIN artifact names exactly the data
it was computed from.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..core.model import STDataset
from ..stindex.leaf_index import STLeafIndex
from ..stindex.stgrid import STGridIndex

__all__ = ["DatasetRegistry", "PreparedDataset"]


class PreparedDataset:
    """One registered dataset plus its warm, lazily built indexes.

    Thread-safe: concurrent requests for the same ``eps_loc`` build the
    index once (the builder holds the lock) and share the instance.
    Sharing is sound because the grid index is read-only during query
    evaluation — its internal CellPack / prefix-index caches are
    lock-protected by the index itself.
    """

    def __init__(self, name: str, dataset: STDataset) -> None:
        self.name = name
        self.dataset = dataset
        self.fingerprint = dataset.fingerprint()
        self._lock = threading.Lock()
        self._grids: Dict[float, STGridIndex] = {}
        self._leaves: Dict[Tuple[float, int, str], STLeafIndex] = {}

    def grid_index(self, eps_loc: float) -> STGridIndex:
        """The shared ``with_tokens=True`` grid index for ``eps_loc``."""
        eps_loc = float(eps_loc)
        with self._lock:
            index = self._grids.get(eps_loc)
            if index is None:
                index = STGridIndex.build(self.dataset, eps_loc, with_tokens=True)
                self._grids[eps_loc] = index
            return index

    def leaf_index(
        self,
        eps_loc: float,
        fanout: int = 100,
        partitioner: str = "rtree",
    ) -> STLeafIndex:
        """The shared leaf index for ``(eps_loc, fanout, partitioner)``."""
        key = (float(eps_loc), int(fanout), partitioner)
        with self._lock:
            index = self._leaves.get(key)
            if index is None:
                index = STLeafIndex(
                    self.dataset,
                    key[0],
                    fanout=key[1],
                    partitioner=key[2],
                )
                self._leaves[key] = index
            return index

    def drop_caches(self) -> None:
        """Drop the lazily built caches of every warm grid index; the
        indexes stay registered and rebuild them on use."""
        with self._lock:
            grids = list(self._grids.values())
        for index in grids:
            index.drop_caches()

    def index_stats(self) -> dict:
        """How many warm indexes this dataset currently holds."""
        with self._lock:
            return {
                "grid_indexes": len(self._grids),
                "leaf_indexes": len(self._leaves),
            }

    def describe(self) -> dict:
        """JSON-ready description for the HTTP dataset listing."""
        payload = {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "users": self.dataset.num_users,
            "objects": len(self.dataset.objects),
        }
        payload.update(self.index_stats())
        return payload

    def profile(self) -> dict:
        """The full dataset profile (``/datasets/<name>/stats``): object /
        user / token counts plus the occupancy of every warm grid — the
        input side of the planner's cost model."""
        from ..datasets.stats import dataset_stats

        stats = dataset_stats(self.dataset, name=self.name)
        distinct_tokens = len(
            {token for obj in self.dataset.objects for token in obj.doc}
        )
        token_occurrences = sum(len(obj.doc) for obj in self.dataset.objects)
        with self._lock:
            grids = sorted(self._grids.values(), key=lambda g: g.eps_loc)
            leaf_keys = sorted(self._leaves)
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "objects": stats.num_objects,
            "users": stats.num_users,
            "distinct_tokens": distinct_tokens,
            "token_occurrences": token_occurrences,
            "tokens_per_object": {
                "mean": stats.tokens_per_object[0],
                "std": stats.tokens_per_object[1],
            },
            "objects_per_token": {
                "mean": stats.objects_per_token[0],
                "std": stats.objects_per_token[1],
            },
            "objects_per_user": {
                "mean": stats.objects_per_user[0],
                "std": stats.objects_per_user[1],
            },
            "grids": [g.occupancy() for g in grids],
            "leaf_indexes": [
                {"eps_loc": k[0], "fanout": k[1], "partitioner": k[2]}
                for k in leaf_keys
            ],
        }


class DatasetRegistry:
    """Named :class:`PreparedDataset` instances, registered once.

    Re-registering a name with *identical content* (same fingerprint)
    returns the existing entry — warm indexes and cached results stay
    valid.  Re-registering with different content replaces the entry;
    result-cache entries keep working because they are keyed by
    fingerprint, never by name.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._datasets: Dict[str, PreparedDataset] = {}

    def register(self, name: str, dataset: STDataset) -> PreparedDataset:
        if not name:
            raise ValueError("dataset name must be non-empty")
        prepared = PreparedDataset(name, dataset)
        with self._lock:
            existing = self._datasets.get(name)
            if (
                existing is not None
                and existing.fingerprint == prepared.fingerprint
            ):
                return existing
            self._datasets[name] = prepared
            return prepared

    def drop_caches(self) -> None:
        """:meth:`PreparedDataset.drop_caches` on every registered dataset."""
        with self._lock:
            prepared = list(self._datasets.values())
        for entry in prepared:
            entry.drop_caches()

    def get(self, name: str) -> Optional[PreparedDataset]:
        with self._lock:
            return self._datasets.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._datasets)

    def describe(self) -> List[dict]:
        with self._lock:
            prepared = list(self._datasets.values())
        return sorted(
            (p.describe() for p in prepared), key=lambda d: d["name"]
        )
