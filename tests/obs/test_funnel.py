"""Funnel counter conservation: every pair lands in exactly one stage.

The EXPLAIN funnel (``docs/observability.md``) rests on two invariants
the kernels must uphold no matter which filters fire:

* ``funnel.object_pairs == sum(funnel.pruned.*) + funnel.verified`` —
  every candidate object pair is either pruned by exactly one admissible
  filter or reaches exact verification;
* ``funnel.verified == funnel.verify_failed + funnel.matched`` — every
  verified pair either matched or failed the exact test.

Both must hold per algorithm, per backend, and under fault-injection
retries, because the funnel is assembled from the same merge-on-accept
registries the determinism tests pin down.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import Telemetry
from repro.core.query import STPSJoinQuery, TopKQuery
from repro.exec import ExecutionPolicy, JoinExecutor
from repro.exec import faults
from repro.obs import MetricsRegistry, PRUNE_STAGES, flush_funnel
from repro.obs import runtime as _obs
from repro.textual.ppjoin import similarity_rs_join, similarity_self_join
from tests.helpers import build_random_dataset

#: Algorithms routed through the instrumented pair-evaluation kernels.
#: "naive" compares objects without the shared kernels and records no
#: funnel, which TestNaiveRecordsNoFunnel pins down explicitly.
FUNNEL_JOIN_ALGOS = ["s-ppj-c", "s-ppj-b", "s-ppj-f", "s-ppj-d"]
TOPK_ALGOS = ["topk-s-ppj-p", "topk-s-ppj-d"]

fork_available = "fork" in multiprocessing.get_all_start_methods()

CHUNK = 5


@pytest.fixture(scope="module")
def dataset():
    return build_random_dataset(7, n_users=40)


@pytest.fixture(scope="module")
def join_query():
    return STPSJoinQuery(eps_loc=0.05, eps_doc=0.2, eps_user=0.2)


@pytest.fixture(scope="module")
def topk_query():
    return TopKQuery(eps_loc=0.05, eps_doc=0.2, k=7)


def _count_evaluator_calls(monkeypatch):
    """Tally every cell join the scalar evaluators run and the object
    pairs it covers, independently of the funnel — the tallies the
    removed ``PairEvalStats.cell_joins``/``object_pairs`` kept."""
    from repro.core import pair_eval

    tally = {"funnel.cell_pairs": 0, "funnel.object_pairs": 0}
    for name in ("_join_small", "_probe_join"):
        original = getattr(pair_eval, name)

        def counted(pack_a, pack_b, *args, _original=original):
            tally["funnel.cell_pairs"] += 1
            tally["funnel.object_pairs"] += len(pack_a) * len(pack_b)
            return _original(pack_a, pack_b, *args)

        monkeypatch.setattr(pair_eval, name, counted)
    return tally


def _counters(dataset, query, algorithm, backend="sequential", workers=1,
              topk=False, **kwargs):
    tele = Telemetry()
    executor = JoinExecutor(
        workers=workers, backend=backend, chunk_size=CHUNK, **kwargs
    )
    run = executor.topk if topk else executor.join
    run(dataset, query, algorithm=algorithm, telemetry=tele)
    return tele.work_counters()


def assert_conserved(counters):
    funnel = {k: v for k, v in counters.items() if k.startswith("funnel.")}
    assert funnel, "no funnel counters recorded"
    pruned = sum(
        v for k, v in funnel.items() if k.startswith("funnel.pruned.")
    )
    assert funnel["funnel.object_pairs"] == pruned + funnel.get(
        "funnel.verified", 0
    )
    assert funnel.get("funnel.verified", 0) == funnel.get(
        "funnel.verify_failed", 0
    ) + funnel.get("funnel.matched", 0)
    # Unknown stage names would silently break the conservation sums.
    stages = {
        k[len("funnel.pruned."):]
        for k in funnel
        if k.startswith("funnel.pruned.")
    }
    assert stages <= set(PRUNE_STAGES)


class TestJoinConservation:
    @pytest.mark.parametrize("algorithm", FUNNEL_JOIN_ALGOS)
    @pytest.mark.parametrize("backend,workers", [("sequential", 1), ("thread", 3)])
    def test_conserved(self, dataset, join_query, algorithm, backend, workers):
        assert_conserved(
            _counters(dataset, join_query, algorithm, backend, workers)
        )

    @pytest.mark.skipif(not fork_available, reason="fork start method unavailable")
    def test_conserved_process_backend(self, dataset, join_query):
        assert_conserved(
            _counters(
                dataset, join_query, "s-ppj-b", "process", 3,
                start_method="fork",
            )
        )

    @pytest.mark.parametrize("algorithm", FUNNEL_JOIN_ALGOS)
    def test_funnel_agrees_with_legacy_stats(
        self, dataset, join_query, algorithm, monkeypatch
    ):
        """The funnel counts exactly the cell joins the evaluators run and
        the object pairs they cover (what PairEvalStats used to count)."""
        calls = _count_evaluator_calls(monkeypatch)
        counters = _counters(dataset, join_query, algorithm)
        assert calls["funnel.cell_pairs"] > 0
        assert counters["funnel.cell_pairs"] == calls["funnel.cell_pairs"]
        assert counters["funnel.object_pairs"] == calls["funnel.object_pairs"]

    def test_conserved_under_faulty_retries(self, dataset, join_query):
        clean = _counters(dataset, join_query, "s-ppj-b")
        policy = ExecutionPolicy(
            max_retries=2, backoff_base=0.0, backoff_jitter=0.0
        )
        faults.install_fault_plan(faults.FaultPlan.parse("error@0*2"))
        try:
            faulty = _counters(
                dataset, join_query, "s-ppj-b", policy=policy
            )
        finally:
            faults.install_fault_plan(None)
        assert_conserved(faulty)
        assert faulty == clean


class TestTopkConservation:
    @pytest.mark.parametrize("algorithm", TOPK_ALGOS)
    def test_conserved(self, dataset, topk_query, algorithm, monkeypatch):
        calls = _count_evaluator_calls(monkeypatch)
        counters = _counters(
            dataset, topk_query, algorithm, topk=True
        )
        assert_conserved(counters)
        assert counters["funnel.cell_pairs"] == calls["funnel.cell_pairs"]


class TestNaiveRecordsNoFunnel:
    def test_no_funnel_counters(self, dataset, join_query):
        counters = _counters(dataset, join_query, "naive")
        assert not any(k.startswith("funnel.") for k in counters)


class TestStandalonePPJoin:
    """The textual kernels uphold conservation outside the engine too."""

    DOCS = [
        (1, 2, 3, 4),
        (2, 3, 4, 5),
        (),  # empty records are pruned by the "empty" stage
        (1, 2),
        (6, 7, 8),
        (1, 2, 3, 4, 5),
        (),
        (9,),
    ]

    def _run(self, fn, *args, **kwargs):
        reg = MetricsRegistry()
        previous = _obs.activate(reg)
        try:
            results = fn(*args, **kwargs)
        finally:
            _obs.restore(previous)
        return results, reg.counter_values()

    def test_self_join_conserved(self):
        results, counters = self._run(
            similarity_self_join, self.DOCS, 0.3, suffix=True
        )
        assert_conserved(counters)
        n = len(self.DOCS)
        assert counters["funnel.object_pairs"] == n * (n - 1) // 2
        assert counters["funnel.matched"] == len(results)

    def test_rs_join_conserved(self):
        probe = self.DOCS
        index = [(1, 2, 3), (4, 5), (), (2, 3, 4, 5, 6)]
        results, counters = self._run(
            similarity_rs_join, probe, index, 0.3
        )
        assert_conserved(counters)
        assert counters["funnel.object_pairs"] == len(probe) * len(index)
        assert counters["funnel.matched"] == len(results)

    def test_self_join_predicate_charged_to_predicate_stage(self):
        _, counters = self._run(
            similarity_self_join, self.DOCS, 0.3,
            pair_predicate=lambda i, j: False,
        )
        assert counters.get("funnel.pruned.predicate", 0) > 0
        assert counters.get("funnel.matched", 0) == 0
        assert_conserved(counters)


class TestFlushFunnel:
    def test_zero_stages_not_materialized(self):
        reg = MetricsRegistry()
        flush_funnel(reg, 10, spatial=4, verified=6, matched=2)
        counters = reg.counter_values()
        assert counters == {
            "funnel.object_pairs": 10,
            "funnel.pruned.spatial": 4,
            "funnel.verified": 6,
            "funnel.verify_failed": 4,
            "funnel.matched": 2,
        }

    def test_verify_failed_is_derived(self):
        reg = MetricsRegistry()
        flush_funnel(reg, 3, verified=3, matched=3)
        counters = reg.counter_values()
        assert "funnel.verify_failed" not in counters
        assert counters["funnel.matched"] == 3
