"""Seeded inputs: datasets, oneshot queries and served request lists.

Every dataset starts from the repository's synthetic generator at a fixed
generator seed (``BASE_SEED``), so the spatial and textual structure --
which hotspots exist, how users crowd them, how heavy the heaviest user is
-- is the same for every benchmark seed.  The benchmark seed then drives a
transformation that keeps that structure but changes every byte the program
reads: user ids and keywords are renamed to fresh random strings, all
points are translated by a random offset and the records are shuffled.

Why not draw a fresh dataset per seed: the work a join does depends on the
hotspot layout far more than on the object count.  Across generator seeds
at equal size, S-PPJ-F object-pair counts vary by 55-80% and top-k
object-pair counts by 11-55% (coefficient of variation over eight seeds),
which would swamp any code change.  The transformation keeps join work
identical across seeds and top-k work within a few percent, while the
bytes of every input, the join requests' ``eps_user`` and the serve-hot
replay order still vary with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy

from repro import generate_dataset, preset
from repro.bench.experiments import DEFAULT_THRESHOLDS
from repro.core.model import STDataset

#: Generator seed of the base populations (the paper's EDBT 2016 date).
BASE_SEED = 20160315

#: Result-cache capacity of a default ``JoinService`` (recorded for
#: provenance: the served working sets are sized against it).
SERVE_CACHE_CAPACITY = 256


@dataclass(frozen=True)
class DataSpec:
    """One benchmark dataset: a generator preset at a size."""

    preset: str
    users: int
    objects_scale: float = 1.0

    @property
    def thresholds(self) -> Tuple[float, float, float]:
        """``(eps_loc, eps_doc, eps_user)`` from the repo's experiment defaults."""
        return DEFAULT_THRESHOLDS[self.preset]


def make_dataset(spec: DataSpec, seed: int) -> STDataset:
    """The seed's transform of the fixed base population for ``spec``."""
    base = generate_dataset(
        preset(spec.preset),
        seed=BASE_SEED,
        num_users=spec.users,
        objects_scale=spec.objects_scale,
    )
    rng = random.Random(f"{seed}/{spec.preset}/{spec.users}")
    users = list(base.users)
    user_names = {
        user: "u%08x" % ident
        for user, ident in zip(users, rng.sample(range(16**8), len(users)))
    }
    tokens = sorted(
        {str(t) for obj in base.objects for t in base.vocab.decode(obj.doc)}
    )
    token_names = {
        token: "k%07x" % ident
        for token, ident in zip(tokens, rng.sample(range(16**7), len(tokens)))
    }
    dx, dy = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
    records = [
        (
            user_names[obj.user],
            obj.x + dx,
            obj.y + dy,
            sorted(token_names[str(t)] for t in base.vocab.decode(obj.doc)),
        )
        for obj in base.objects
    ]
    rng.shuffle(records)
    return STDataset.from_records(records)


#: The ``k`` values top-k and knn requests step through (12 values,
#: coprime with the 5 ``eps_doc`` values: 60 distinct pairs, and any 12
#: consecutive requests of a kind cover every ``k``).
K_VALUES = tuple(range(3, 15))


#: knn probe users per dataset.  7 is coprime with ``5 * len(K_VALUES)``,
#: so the (probe, ``eps_doc``, ``k``) steps of :func:`request_stream`
#: give 420 distinct knn requests per dataset before they repeat.
PROBES = 7


def probe_users(dataset: STDataset, eps_loc: float) -> List[str]:
    """``PROBES`` knn probe users of about the same, typical cost.

    A served knn op's CPU follows its probe user (from 1 to 6 ms on the
    twitter serving dataset) far more than ``k`` or ``eps_doc``.  Requests
    cycle through the probes, and a run covers a window of that cycle
    whose start moves with the host's speed, so probes of unequal cost
    make the knn median depend on the window.  The cost follows the
    number of candidate users: other users with an object within
    ``2 * eps_loc`` (per axis) of a probe object that shares a keyword
    with it.  Of the middle fifth of users by object count, the
    ``PROBES`` users nearest the median of that count are taken.  Ties
    are broken by object count and then the lowest point, which the
    seed's translation keeps in order, so every seed probes the same base
    users.
    """
    def rank(user):
        objs = dataset.user_objects(user)
        return len(objs), min((o.x, o.y) for o in objs)

    objects = dataset.objects
    xs = numpy.array([o.x for o in objects])
    ys = numpy.array([o.y for o in objects])
    reach = 2 * eps_loc

    def candidates(user) -> int:
        found = set()
        for mine in dataset.user_objects(user):
            near = numpy.flatnonzero(
                (numpy.abs(xs - mine.x) <= reach) & (numpy.abs(ys - mine.y) <= reach)
            )
            words = set(mine.doc)
            found.update(
                objects[i].user for i in near
                if objects[i].user != user and words.intersection(objects[i].doc)
            )
        return len(found)

    ranked = sorted(dataset.users, key=rank)
    middle = ranked[2 * len(ranked) // 5 : 3 * len(ranked) // 5]
    by_count = sorted(middle, key=lambda u: (candidates(u), rank(u)))
    first = max(0, (len(by_count) - PROBES) // 2)
    return sorted(by_count[first : first + PROBES], key=rank)


def eps_doc_values(spec: DataSpec) -> Tuple[float, ...]:
    """The few ``eps_doc`` values requests step through.

    The warm grid caches one prefix index per ``(cell, user, eps_doc)``, so
    a fresh ``eps_doc`` per request would rebuild them every time and grow
    the server without bound; a small fixed set is warmed in set-up.
    """
    _, eps_doc, _ = spec.thresholds
    return tuple(round(eps_doc + step * 0.03, 4) for step in range(-2, 3))


def request_stream(
    rng: random.Random,
    specs: Dict[str, DataSpec],
    probes: Dict[str, Sequence[str]],
    recipe: Sequence[Tuple[str, str, str]],
) -> Iterator[dict]:
    """Distinct served-query dicts, cycling through ``recipe``.

    ``recipe`` lists ``(dataset, type, algorithm)`` per position of the op
    cycle.  ``eps_doc``, ``k`` and the knn probe user step through their
    short lists together, so every run has the same parameter mix: op cost
    depends strongly on ``k`` and the probe, and a mix drawn afresh per
    seed moved the per-type medians by up to 30% between seeds.
    ``eps_user`` is drawn from ``rng``.  A request that repeats an earlier
    one is skipped, so no two requests share a result-cache key; the
    stream ends once every recipe position's parameter space is used up.
    """
    seen = set()
    counts: Dict[Tuple[str, str], int] = {}
    while True:
        produced = False
        for name, kind, algorithm in recipe:
            spec = specs[name]
            eps_loc, _, eps_user = spec.thresholds
            docs = eps_doc_values(spec)
            for _ in range(len(docs) * len(K_VALUES)):
                step = counts.get((name, kind), 0)
                counts[name, kind] = step + 1
                request = {
                    "type": kind,
                    "dataset": name,
                    "eps_loc": eps_loc,
                    "eps_doc": docs[step % len(docs)],
                }
                if kind == "join":
                    request["algorithm"] = algorithm
                    request["eps_user"] = round(
                        rng.uniform(eps_user - 0.03, eps_user + 0.07), 4
                    )
                else:
                    request["k"] = K_VALUES[step % len(K_VALUES)]
                    if kind == "topk":
                        request["algorithm"] = algorithm
                    else:
                        request["user"] = probes[name][step % len(probes[name])]
                key = tuple(sorted(request.items()))
                if key not in seen:
                    seen.add(key)
                    produced = True
                    yield request
                    break
        if not produced:
            return


def describe(specs: Dict[str, DataSpec], datasets: Dict[str, STDataset]) -> dict:
    """Sizes for the provenance record."""
    return {
        name: {
            "preset": spec.preset,
            "users": datasets[name].num_users,
            "objects": len(datasets[name].objects),
            "thresholds": list(spec.thresholds),
        }
        for name, spec in specs.items()
    }
