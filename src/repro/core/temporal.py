"""Temporal STPSJoin — the paper's stated future-work extension.

Section 6 of the paper: *"we intend to integrate additional
characteristics in STPSJoin queries, which are often associated with web
objects, such as temporal information."*  This module realizes that
extension: every object additionally carries a timestamp, and the
matching predicate gains a third condition

``mu_T(o, o') = delta(o, o') <= eps_loc  AND  tau(o, o') >= eps_doc
                AND  |o.t - o'.t| <= eps_time``

with ``sigma`` and the join definition unchanged on top of it.  Two users
are then similar only when they were at similar places, writing similar
things, at similar *times* — e.g. attendees of the same event rather than
people who visit the same POI years apart.

The evaluation is S-PPJ-F with a time predicate: the grid's candidate
table and its ``sigma_bar`` bound remain admissible because the temporal
condition only ever *removes* matches, and the exact refinement passes
the timestamp check into PPJ-B's object-level joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, List, Optional, Tuple

from ..stindex.stgrid import STGridIndex
from .model import STDataset, STObject, UserId
from .pair_eval import PairEvalStats, ppj_b_pair
from .query import STPSJoinQuery, UserPair
from .similarity import objects_match

__all__ = [
    "TemporalQuery",
    "TemporalDataset",
    "temporal_stps_join",
    "naive_temporal_stps_join",
]

#: Input record with a timestamp: ``(user, x, y, keywords, t)``.
TemporalRecord = Tuple[UserId, float, float, Iterable[Hashable], float]


@dataclass(frozen=True)
class TemporalQuery:
    """Thresholds of the temporal STPSJoin."""

    eps_loc: float
    eps_doc: float
    eps_time: float
    eps_user: float

    def __post_init__(self) -> None:
        # Reuse the base validation; eps_time only needs non-negativity.
        STPSJoinQuery(self.eps_loc, self.eps_doc, self.eps_user)
        if self.eps_time < 0:
            raise ValueError("eps_time must be non-negative")

    @property
    def spatial_textual(self) -> STPSJoinQuery:
        """The query with the temporal condition dropped."""
        return STPSJoinQuery(self.eps_loc, self.eps_doc, self.eps_user)


class TemporalDataset:
    """An :class:`STDataset` with a timestamp per object (indexed by oid)."""

    def __init__(self, dataset: STDataset, timestamps: List[float]):
        if len(timestamps) != dataset.num_objects:
            raise ValueError(
                "need exactly one timestamp per object "
                f"({len(timestamps)} given, {dataset.num_objects} objects)"
            )
        self.dataset = dataset
        self.timestamps = timestamps

    @classmethod
    def from_records(cls, records: Iterable[TemporalRecord]) -> "TemporalDataset":
        """Build from ``(user, x, y, keywords, t)`` records."""
        staged = list(records)
        dataset = STDataset.from_records(
            [(u, x, y, kw) for u, x, y, kw, _ in staged]
        )
        return cls(dataset, [float(t) for *_, t in staged])

    def timestamp(self, obj: STObject) -> float:
        """The timestamp of ``obj``."""
        return self.timestamps[obj.oid]


def temporal_stps_join(
    tdataset: TemporalDataset,
    query: TemporalQuery,
    stats: Optional[PairEvalStats] = None,
) -> List[UserPair]:
    """Evaluate a temporal STPSJoin with the S-PPJ-F scheme.

    The spatio-textual filter stays admissible (the temporal predicate
    only removes matches); refinement applies the timestamp condition at
    object level inside PPJ-B.
    """
    dataset = tdataset.dataset
    times = tdataset.timestamps
    eps_time = query.eps_time

    def close_in_time(a: STObject, b: STObject) -> bool:
        return abs(times[a.oid] - times[b.oid]) <= eps_time

    index = STGridIndex.build(dataset, query.eps_loc)
    table = index.candidate_table()
    users = dataset.users
    sizes = [len(dataset.user_objects(u)) for u in users]
    results: List[UserPair] = []

    # Dataset order: user ``r`` pairs with the candidates ranked before it.
    for r, user in enumerate(users):
        cand, num = table.row(r)
        earlier = cand < r
        cand, num = cand[earlier].tolist(), num[earlier].tolist()
        if stats is not None:
            stats.candidates += len(cand)
        for c, numerator in zip(cand, num):
            if numerator / (sizes[r] + sizes[c]) < query.eps_user:
                if stats is not None:
                    stats.bound_pruned += 1
                continue
            if stats is not None:
                stats.refinements += 1
            score = ppj_b_pair(
                index,
                users[c],
                user,
                query.eps_loc,
                query.eps_doc,
                query.eps_user,
                sizes[c],
                sizes[r],
                stats,
                predicate=close_in_time,
            )
            if score >= query.eps_user:
                results.append(UserPair(users[c], user, score))
    return sorted(results, key=lambda p: (-p.score, str(p.user_a), str(p.user_b)))


def naive_temporal_stps_join(
    tdataset: TemporalDataset, query: TemporalQuery
) -> List[UserPair]:
    """Exhaustive oracle for the temporal join."""
    dataset = tdataset.dataset
    times = tdataset.timestamps
    results: List[UserPair] = []
    users = dataset.users
    for i, ua in enumerate(users):
        du_a = dataset.user_objects(ua)
        for ub in users[i + 1 :]:
            du_b = dataset.user_objects(ub)
            total = len(du_a) + len(du_b)
            if total == 0:
                continue
            matched_a = set()
            matched_b = set()
            for a in du_a:
                for b in du_b:
                    if a.oid in matched_a and b.oid in matched_b:
                        continue
                    if abs(times[a.oid] - times[b.oid]) > query.eps_time:
                        continue
                    if objects_match(a, b, query.eps_loc, query.eps_doc):
                        matched_a.add(a.oid)
                        matched_b.add(b.oid)
            score = (len(matched_a) + len(matched_b)) / total
            if score >= query.eps_user:
                results.append(UserPair(ua, ub, score))
    return sorted(results, key=lambda p: (-p.score, str(p.user_a), str(p.user_b)))
