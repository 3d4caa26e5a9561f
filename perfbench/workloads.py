"""The three workloads: set-up, op loop, traced op, references, counted pass.

``oneshot``
    Cold library calls: each op loads a TSV file with ``load_tsv`` and
    runs one query that builds its own index -- what ``stpsjoin
    join|topk|knn FILE`` does after import.  Dataset loading, grid build
    and the core kernels do nearly all the work; exec, serve and http do
    none, because the plain API bypasses the engine.
``serve-miss``
    A ``JoinHTTPServer`` on a thread of this process; one ``ServeClient``
    sends distinct join/topk/knn requests, so every request misses the
    result cache and is inserted into it.  Warm-index core work on the
    engine route.  Set-up fills the 256-entry cache with cheap requests
    of its own, so every timed insert evicts an entry.
``serve-hot``
    The same server and data; 48 distinct requests are fetched once in
    set-up, then replayed with skewed popularity, so every timed op is a
    cache hit.  Only http, serve and analytics work; any kernel or index
    change should leave this workload unchanged.

Op mixes are fixed cycles (``RECIPES``).  Each cycle gives one
(dataset, type) cluster a clear majority around the middle of the op-cost
order, so the medians land inside a cluster rather than in the gap
between two, where a small shift in op counts would move them.  The
oneshot joins alternate s-ppj-f and s-ppj-b, whose cold ops cost the same
within a few percent, so both algorithms share the join median.
"""

from __future__ import annotations

import json
import random
import threading
from typing import Any, Dict, Iterator, List, Tuple

from repro import (
    Telemetry,
    load_tsv,
    save_tsv,
    similar_users,
    stps_join,
    topk_stps_join,
)
from repro.serve import JoinService
from repro.serve.client import ServeClient
from repro.serve.http import JoinHTTPServer
from repro.stindex.stgrid import STGridIndex

from datagen import (
    SERVE_CACHE_CAPACITY,
    DataSpec,
    describe,
    eps_doc_values,
    make_dataset,
    probe_users,
    request_stream,
)
from spans import Tracer

Result = List[tuple]

#: ``(dataset, type, algorithm)`` per position of each workload's op cycle.
RECIPES: Dict[str, List[Tuple[str, str, str]]] = {
    "oneshot": (
        [("twitter", "join", "s-ppj-f"), ("twitter", "join", "s-ppj-b")] * 3
        + [("geotext", "join", "s-ppj-f"), ("geotext", "join", "s-ppj-b")]
        + [("twitter", "topk", "topk-s-ppj-p")] * 3
        + [("geotext", "topk", "topk-s-ppj-p")]
        + [("twitter", "knn", "")] * 3
        + [("geotext", "knn", "")]
    ),
    "serve-miss": (
        [("twitter", "join", "s-ppj-f")] * 6
        + [("geotext", "join", "s-ppj-f")]
        + [("geotext", "topk", "topk-s-ppj-p")] * 5
        + [("twitter", "topk", "topk-s-ppj-p")] * 2
        + [("twitter", "knn", "")] * 3
        + [("geotext", "knn", "")]
    ),
    "serve-hot": (
        [("geotext", "join", "s-ppj-f"), ("twitter", "join", "s-ppj-f")] * 8
        + [("geotext", "topk", "topk-s-ppj-p")] * 16
        + [("twitter", "knn", ""), ("geotext", "knn", "")] * 8
    ),
}

#: Dataset sizes per workload (``tiny`` is the self-test's size).
SPECS = {
    "oneshot": {
        "twitter": DataSpec("twitter", 120, objects_scale=0.5),
        "geotext": DataSpec("geotext", 120, objects_scale=0.7),
    },
    "serve": {
        "twitter": DataSpec("twitter", 200, objects_scale=0.35),
        "geotext": DataSpec("geotext", 200, objects_scale=0.5),
    },
    "tiny": {
        "twitter": DataSpec("twitter", 24),
        "geotext": DataSpec("geotext", 24),
    },
}

#: Distinct oneshot queries per recipe position (cycled in the op loop).
ONESHOT_VARIANTS = 2

#: Served join/topk requests replayed through the counted pass.
COUNTED_REQUESTS = 8

#: Zipf exponent of the serve-hot replay popularity.
HOT_SKEW = 0.8

#: ``k`` of the serve-miss cache-filling knn requests; the request stream
#: never uses it (``K_VALUES`` starts at 3), so no timed request hits one.
FILL_K = 1


def canonical(kind: str, result: Any) -> Result:
    """Library results as comparable tuples."""
    if kind == "knn":
        return [(user, score) for user, score in result]
    return [(p.user_a, p.user_b, p.score) for p in result]


def served(response: dict) -> Result:
    """A server response's result list as comparable tuples."""
    rows = response["neighbours"] if response["type"] == "knn" else response["pairs"]
    return [tuple(row) for row in rows]


def evaluate(dataset, query: dict, **extra) -> Any:
    """One library call for ``query`` (a request dict)."""
    eps_loc, eps_doc = query["eps_loc"], query["eps_doc"]
    if query["type"] == "join":
        return stps_join(
            dataset, eps_loc, eps_doc, query["eps_user"],
            algorithm=query["algorithm"], **extra,
        )
    if query["type"] == "topk":
        return topk_stps_join(
            dataset, eps_loc, eps_doc, query["k"],
            algorithm=query["algorithm"], **extra,
        )
    return similar_users(
        dataset, query["user"], eps_loc, eps_doc, query["k"], **extra
    )


def counters_of(datasets: dict, queries: List[dict], grids=None) -> Dict[str, int]:
    """Summed ``Telemetry.work_counters()`` of the join/topk ``queries``.

    ``telemetry=`` switches S-PPJ-C/B to their counted twins, so this pass
    is never timed.  ``grids`` (dataset -> warm index) replays the served
    engine route instead of the cold one.
    """
    totals: Dict[str, int] = {}
    for query in queries:
        if query["type"] == "knn":
            continue
        telemetry = Telemetry()
        extra = {"telemetry": telemetry}
        if grids is not None:
            extra["index"] = grids[query["dataset"]]
        evaluate(datasets[query["dataset"]], query, **extra)
        for name, value in telemetry.work_counters().items():
            totals[name] = totals.get(name, 0) + value
    return totals


class Workload:
    """Base: per-run state plus the hooks the runner calls."""

    name = ""

    def __init__(self, seed: int, workdir: str, tiny: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.tracer = Tracer()
        self.first_results: Dict[int, Tuple[dict, Result]] = {}

    def specs(self) -> Dict[str, DataSpec]:
        raise NotImplementedError

    def _write_datasets(self) -> None:
        tracer = self.tracer
        self.paths = {}
        generated = {}
        for name, spec in self.specs().items():
            with tracer.span("datasets.generate"):
                generated[name] = make_dataset(spec, self.seed)
            self.paths[name] = f"{self.workdir}/{self.name}-{name}.tsv"
            with tracer.span("datasets.save_tsv"):
                save_tsv(generated[name], self.paths[name])
        self.sizes = describe(self.specs(), generated)
        self.probes = {
            name: probe_users(data, self.specs()[name].thresholds[0])
            for name, data in generated.items()
        }

    def loaded(self) -> dict:
        """Each dataset as the program reads it (for references)."""
        return {name: load_tsv(path) for name, path in self.paths.items()}


class Oneshot(Workload):
    name = "oneshot"

    def specs(self):
        return SPECS["tiny" if self.tiny else "oneshot"]

    def setup(self) -> None:
        self._write_datasets()
        stream = request_stream(
            random.Random(f"{self.seed}/oneshot"),
            self.specs(), self.probes, RECIPES["oneshot"],
        )
        self.queries = [
            next(stream)
            for _ in range(ONESHOT_VARIANTS * len(RECIPES["oneshot"]))
        ]
        self.occupied: List[int] = []

    def teardown(self) -> None:
        pass

    def start_tracing(self) -> None:
        pass

    def stop_tracing(self) -> None:
        pass

    def ops(self) -> Iterator[dict]:
        while True:
            yield from self.queries

    def sizes_extra(self) -> dict:
        return {"distinct_queries": len(self.queries)}

    def run_op(self, query: dict) -> Result:
        dataset = load_tsv(self.paths[query["dataset"]])
        return canonical(query["type"], evaluate(dataset, query))

    def traced_op(self, query: dict) -> Tuple[Result, Any]:
        with self.tracer.span("datasets.load_tsv"):
            dataset = load_tsv(self.paths[query["dataset"]])
        with self.tracer.span(f"core.{query['type']}"):
            result = evaluate(dataset, query)
        return canonical(query["type"], result), dataset

    def probe_op(self, query: dict, op_id: int, dataset: Any) -> None:
        """Split the cold query's grid build out of its core span."""
        with self.tracer.span("probe.grid_build", op_id, probe=True) as span:
            grid = STGridIndex.build(
                dataset, query["eps_loc"],
                with_tokens=query.get("algorithm") != "s-ppj-b",
            )
        self.tracer.carve(
            op_id, f"core.{query['type']}", "stindex.grid_build", span.duration
        )
        self.occupied.append(grid.occupancy()["occupied_cells"])

    layer_of = {
        "datasets.load_tsv": "datasets.load",
        "core.join": "core.join",
        "core.topk": "core.topk",
        "core.knn": "core.knn",
    }

    def references(self, queries: List[dict]) -> Dict[int, Result]:
        """Per distinct query, the answer of a different code path.

        s-ppj-f and s-ppj-b check each other; topk-s-ppj-p is checked by
        topk-s-ppj-f; cold knn by knn on a prebuilt full grid index.
        """
        datasets = self.loaded()
        refs: Dict[int, Result] = {}
        for query in queries:
            key = id(query)
            if key in refs:
                continue
            dataset = datasets[query["dataset"]]
            other = dict(query)
            extra = {}
            if query["type"] == "join":
                other["algorithm"] = (
                    "s-ppj-b" if query["algorithm"] == "s-ppj-f" else "s-ppj-f"
                )
            elif query["type"] == "topk":
                other["algorithm"] = "topk-s-ppj-f"
            else:
                extra["index"] = STGridIndex.build(
                    dataset, query["eps_loc"], with_tokens=True
                )
            refs[key] = canonical(query["type"], evaluate(dataset, other, **extra))
        return refs

    def counted_pass(self) -> Dict[str, int]:
        return counters_of(self.loaded(), self.queries)

    def layer_counts(self) -> dict:
        occupied = self.occupied
        mean = sum(occupied) / len(occupied) if occupied else 0.0
        return {"stindex.occupied_cells": mean}


class _TracedService:
    """Wraps the served ``JoinService`` so its ``query`` records a span."""

    def __init__(self, service: JoinService, tracer: Tracer) -> None:
        self._service = service
        self._tracer = tracer

    def query(self, request):
        with self._tracer.span("serve.query"):
            return self._service.query(request)

    def __getattr__(self, name):
        return getattr(self._service, name)


class Serve(Workload):
    """Shared set-up of the two served workloads."""

    def specs(self):
        return SPECS["tiny" if self.tiny else "serve"]

    def setup(self) -> None:
        tracer = self.tracer
        self._write_datasets()
        self.service = JoinService()
        self.fingerprint_s = 0.0
        for name, path in self.paths.items():
            with tracer.span("datasets.load_tsv"):
                dataset = load_tsv(path)
            with tracer.span("datasets.fingerprint") as span:
                dataset.fingerprint()
            self.fingerprint_s += span.duration
            self.service.register_dataset(name, dataset)
        self.server = JoinHTTPServer(("127.0.0.1", 0), self.service)
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-server"
        )
        self.thread.start()
        self.client = ServeClient(f"http://127.0.0.1:{self.server.port}")
        self.grid_build_s = 0.0
        self.grids = {}
        for name, spec in self.specs().items():
            with tracer.span("stindex.grid_build") as span:
                self.grids[name] = self.service.registry.get(name).grid_index(
                    spec.thresholds[0]
                )
            self.grid_build_s += span.duration
        self.warm()

    def warm(self) -> None:
        """Build the per-``eps_doc`` caches every request type touches."""
        for name, spec in self.specs().items():
            eps_loc, _, eps_user = spec.thresholds
            probe = self.probes[name][0]
            for eps_doc in eps_doc_values(spec):
                base = {"dataset": name, "eps_loc": eps_loc, "eps_doc": eps_doc,
                        "no_cache": True}
                self.client.query({**base, "type": "join", "eps_user": eps_user})
                self.client.query({**base, "type": "topk", "k": 5})
                self.client.query({**base, "type": "knn", "user": probe, "k": 5})

    def teardown(self) -> None:
        self.server.shutdown()
        self.thread.join(timeout=30)
        self.server.server_close()
        self.service.close()
        if self.thread.is_alive():
            raise RuntimeError("server thread did not stop")

    def run_op(self, query: dict) -> Result:
        return served(self.client.query(query))

    def start_tracing(self) -> None:
        """Wrap the served service and build the analytics probe services.

        The probes share the warm registry but own their caches, so the
        measured cache is never touched by a probe call.  They run only
        where ``analytics_probe`` is set: on serve-miss the analytics cost
        is lost in the noise of two full query evaluations, and the probes
        would triple the CPU of every traced op.
        """
        self.server.service = _TracedService(self.service, self.tracer)
        if self.analytics_probe:
            self.shadow_on = JoinService(registry=self.service.registry)
            self.shadow_off = JoinService(
                registry=self.service.registry, analytics=False
            )
        self.response_bytes: List[int] = []
        self.chunks: List[int] = []
        self.cache_before = self.service.cache.stats()

    def stop_tracing(self) -> None:
        self.server.service = self.service
        self.cache_after = self.service.cache.stats()
        if self.analytics_probe:
            self.shadow_on.close()
            self.shadow_off.close()

    def traced_op(self, query: dict) -> Tuple[Result, Any]:
        with self.tracer.span("http.client") as span:
            self.tracer.remote_parent = span
            response = self.client.query(query)
        self.tracer.remote_parent = None
        return served(response), response

    def probe_op(self, query: dict, op_id: int, response: Any) -> None:
        tracer = self.tracer
        self.response_bytes.append(len((json.dumps(response) + "\n").encode()))
        if self.core_probe:
            name = query["dataset"]
            dataset = self.service.registry.get(name).dataset
            extra = {"index": self.grids[name]}
            if query["type"] != "knn":
                extra["with_report"] = True
            with tracer.span("probe.core", op_id, probe=True) as span:
                result = evaluate(dataset, query, **extra)
            if query["type"] != "knn":
                self.chunks.append(result[1].chunks_total)
            tracer.carve(op_id, "serve.overhead", f"core.{query['type']}",
                         span.duration)
        if not self.analytics_probe:
            return
        with tracer.span("probe.analytics_on", op_id, probe=True) as on:
            self.shadow_on.query(query)
        with tracer.span("probe.analytics_off", op_id, probe=True) as off:
            self.shadow_off.query(query)
        tracer.carve(op_id, "serve.overhead", "obs.analytics",
                     on.duration - off.duration)

    layer_of = {"http.client": "http.overhead", "serve.query": "serve.overhead"}

    def references(self, queries: List[dict]) -> Dict[int, Result]:
        """Each distinct request answered by a direct cold library call."""
        datasets = self.loaded()
        refs: Dict[int, Result] = {}
        for query in queries:
            if id(query) not in refs:
                refs[id(query)] = canonical(
                    query["type"], evaluate(datasets[query["dataset"]], query)
                )
        return refs

    def layer_counts(self) -> dict:
        before, after = self.cache_before, self.cache_after
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
        return {
            "stindex.occupied_cells": sum(
                g.occupancy()["occupied_cells"] for g in self.grids.values()
            ),
            "exec.chunks": sum(self.chunks) / len(self.chunks) if self.chunks else 0.0,
            "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "serve.cache_evictions": after.evictions - before.evictions,
            "http.response_bytes": (
                sum(self.response_bytes) / len(self.response_bytes)
                if self.response_bytes else 0.0
            ),
        }


class ServeMiss(Serve):
    name = "serve-miss"
    core_probe = True
    analytics_probe = False

    def _stream(self) -> Iterator[dict]:
        return request_stream(
            random.Random(f"{self.seed}/serve-miss"),
            self.specs(), self.probes, RECIPES["serve-miss"],
        )

    def setup(self) -> None:
        super().setup()
        self.fill_cache()
        self.stream = self._stream()

    def fill_cache(self) -> None:
        """Fill the result cache past its capacity with cheap knn requests.

        One ``k = FILL_K`` knn request per (dataset, user), in-process:
        400 inserts at full size against 256 entries, so the cache is full
        and every insert of the timed phase evicts one entry.  Every user
        is asked, so the fill costs the same for every seed.
        """
        for name, spec in self.specs().items():
            eps_loc, eps_doc, _ = spec.thresholds
            for user in self.service.registry.get(name).dataset.users:
                self.service.query({
                    "type": "knn", "dataset": name, "eps_loc": eps_loc,
                    "eps_doc": eps_doc, "user": user, "k": FILL_K,
                })

    def ops(self) -> Iterator[dict]:
        # One stream across the untraced and traced phases of a run, so
        # the traced phase never repeats (and hits) an earlier request.
        return self.stream

    def counted_pass(self) -> Dict[str, int]:
        # The first requests of the stream: the same list for a seed,
        # however many ops the timed phase completed.
        stream = self._stream()
        first = [next(stream) for _ in range(2 * COUNTED_REQUESTS)]
        datasets = {n: self.service.registry.get(n).dataset for n in self.grids}
        queries = [q for q in first if q["type"] != "knn"][:COUNTED_REQUESTS]
        return counters_of(datasets, queries, grids=self.grids)

    def sizes_extra(self) -> dict:
        return {"distinct_requests": "one per op (all distinct)",
                "cache_capacity": SERVE_CACHE_CAPACITY,
                "cache_entries_after_setup": len(self.service.cache)}


class ServeHot(Serve):
    name = "serve-hot"
    core_probe = False
    analytics_probe = True

    def setup(self) -> None:
        super().setup()
        stream = request_stream(
            random.Random(f"{self.seed}/serve-hot"),
            self.specs(), self.probes, RECIPES["serve-hot"],
        )
        self.hot = [next(stream) for _ in range(len(RECIPES["serve-hot"]))]
        for query in self.hot:
            self.client.query(query)

    def warm(self) -> None:
        pass  # fetching the hot set warms everything it touches

    def start_tracing(self) -> None:
        super().start_tracing()
        for query in self.hot:
            self.shadow_on.query(query)
            self.shadow_off.query(query)

    def ops(self) -> Iterator[dict]:
        rng = random.Random(f"{self.seed}/serve-hot/replay")
        order = list(self.hot)
        rng.shuffle(order)
        weights = [1.0 / (rank + 1) ** HOT_SKEW for rank in range(len(order))]
        while True:
            yield from rng.choices(order, weights=weights, k=256)

    def counted_pass(self) -> Dict[str, int]:
        # Every timed op is a cache hit: the core layer does no work.
        return {}

    def sizes_extra(self) -> dict:
        return {"distinct_requests": len(self.hot),
                "cache_capacity": SERVE_CACHE_CAPACITY}


WORKLOADS = {cls.name: cls for cls in (Oneshot, ServeMiss, ServeHot)}
