"""The spatio-textual partition-leaf index of S-PPJ-D (Section 4.1.4).

Instead of grid cells, S-PPJ-D partitions the database by the leaf nodes
of a data-partitioning structure — an R-tree in the paper, with the
``fanout`` parameter of Figure 6 controlling granularity; a quadtree is
supported as the alternative partitioner of the related work (Rao et al.).
The index ``I`` keeps, per leaf:

* an inverted list token -> users with an object containing the token;
* the objects of every user inside the leaf (``D^l_u``);

plus, per user, the sorted list of leaves holding their objects, and the
precomputed *relevance* relation between leaves: two leaves are relevant
when their ``eps_loc``-extended MBRs intersect — computed with the
Brinkhoff R-tree join for the R-tree, and with a plane sweep for the
quadtree (whose leaves carry no internal hierarchy to traverse).
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from ..core.model import STDataset, STObject, UserId
from ..obs import runtime as _obs
from ..spatial.geometry import Rect
from ..spatial.quadtree import QuadTree
from ..spatial.rtree import RTree
from ..spatial.spatial_join import rtree_relevant_leaf_pairs, sweep_rect_pairs
__all__ = ["STLeafIndex"]

#: The shared (immutable) answer of a token lookup that misses.
_NO_USERS: Tuple[UserId, ...] = ()


class STLeafIndex:
    """Leaf-level spatio-textual index over a data-driven partitioning.

    Parameters
    ----------
    fanout:
        Maximum objects per partition (R-tree fanout / quadtree capacity).
    partitioner:
        ``"rtree"`` (the paper's choice) or ``"quadtree"``.
    """

    def __init__(
        self,
        dataset: STDataset,
        eps_loc: float,
        fanout: int = 100,
        partitioner: str = "rtree",
    ):
        if partitioner not in ("rtree", "quadtree"):
            raise ValueError(f"unknown partitioner: {partitioner!r}")
        self.dataset = dataset
        self.eps_loc = float(eps_loc)
        self.fanout = int(fanout)
        self.partitioner = partitioner

        with _obs.phase("index.build.leaf"):
            if partitioner == "rtree":
                entries = [(o.x, o.y, o) for o in dataset.objects]
                self.tree = RTree.bulk_load(entries, fanout=fanout)
            else:
                self.tree = QuadTree(dataset.bounds, capacity=fanout)
                for o in dataset.objects:
                    self.tree.insert(o.x, o.y, o)
            leaves = self.tree.leaves()
            self.num_leaves = len(leaves)

            #: eps_loc-extended MBR of every leaf, indexed by leaf id.
            self.extended: List[Rect] = [
                leaf.mbr.extend(self.eps_loc) for leaf in leaves  # type: ignore[union-attr]
            ]

            # leaf id -> user -> objects (D^l_u).
            self._leaf_objects: List[Dict[UserId, List[STObject]]] = [
                {} for _ in range(self.num_leaves)
            ]
            # leaf id -> token -> users (U^l_t).
            self._leaf_token_users: List[Dict[int, Set[UserId]]] = [
                {} for _ in range(self.num_leaves)
            ]
            # user -> sorted leaf ids (Lu).
            self._user_leaves: Dict[UserId, List[int]] = {}

            for leaf in leaves:
                lid = leaf.leaf_id
                per_user = self._leaf_objects[lid]
                token_map = self._leaf_token_users[lid]
                for _, _, obj in leaf.entries:
                    per_user.setdefault(obj.user, []).append(obj)
                    for token in obj.doc:
                        token_map.setdefault(token, set()).add(obj.user)
                for user in per_user:
                    self._user_leaves.setdefault(user, []).append(lid)
            for leaf_ids in self._user_leaves.values():
                leaf_ids.sort()

            # Relevance relation: leaf -> sorted relevant leaf ids (incl. self).
            self._relevant: List[List[int]] = [[] for _ in range(self.num_leaves)]
            for a, b in self._relevant_pairs():
                self._relevant[a].append(b)
                if a != b:
                    self._relevant[b].append(a)
            for rel in self._relevant:
                rel.sort()

    def _relevant_pairs(self) -> Set[Tuple[int, int]]:
        """Unordered pairs of leaves with intersecting extended MBRs."""
        if self.partitioner == "rtree":
            return rtree_relevant_leaf_pairs(self.tree, self.eps_loc)
        pairs: Set[Tuple[int, int]] = set()
        for a, b in sweep_rect_pairs(self.extended, self.extended):
            pairs.add((a, b) if a <= b else (b, a))
        return pairs

    # -- accessors ----------------------------------------------------------------

    def user_leaves(self, user: UserId) -> List[int]:
        """``I.getLeafs(u)``: sorted ids of leaves holding ``user``'s objects."""
        return self._user_leaves.get(user, [])

    def leaf_objects(self, leaf_id: int, user: UserId) -> List[STObject]:
        """``D^l_u``: objects of ``user`` inside leaf ``leaf_id``."""
        return self._leaf_objects[leaf_id].get(user, [])

    def leaf_user_count(self, leaf_id: int, user: UserId) -> int:
        """``|D^l_u|``."""
        objs = self._leaf_objects[leaf_id].get(user)
        return len(objs) if objs else 0

    def leaf_users(self, leaf_id: int) -> List[UserId]:
        """Users with at least one object in the leaf."""
        return list(self._leaf_objects[leaf_id].keys())

    def token_users(self, leaf_id: int, token: int) -> AbstractSet[UserId]:
        """``U^l_t``: users whose objects in the leaf contain ``token``."""
        return self._leaf_token_users[leaf_id].get(token, _NO_USERS)

    def user_leaf_tokens(self, user: UserId, leaf_id: int) -> Set[int]:
        """Tokens of ``user``'s objects inside the leaf."""
        tokens: Set[int] = set()
        for obj in self.leaf_objects(leaf_id, user):
            tokens.update(obj.doc)
        return tokens

    def relevant_leaves(self, leaf_id: int) -> List[int]:
        """``I.getRelevantLeafs``: leaves with intersecting extended MBRs."""
        return self._relevant[leaf_id]

    def intersection_area(self, leaf_a: int, leaf_b: int) -> Optional[Rect]:
        """``A``: intersection of the two extended leaf MBRs (may be None)."""
        return self.extended[leaf_a].intersection(self.extended[leaf_b])
