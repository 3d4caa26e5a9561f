"""Coherence of the work counters across algorithms: the PairEvalStats
user-pair counters, and the funnel's pair-level counters read through
Telemetry."""

import multiprocessing

import pytest

from repro import STPSJoinQuery, Telemetry, TopKQuery, stps_join, topk_stps_join
from repro.core.pair_eval import PairEvalStats
from repro.core.similarity import set_similarity
from repro.exec import JoinExecutor, get_plan
from tests.helpers import build_clustered_dataset

fork_available = "fork" in multiprocessing.get_all_start_methods()


def _funnel(tele):
    """The pair-level work counters (``funnel.*``) of a run."""
    return {
        k: v for k, v in tele.work_counters().items() if k.startswith("funnel.")
    }


class TestFilterCounters:
    def test_sppj_f_candidates_split(self):
        ds = build_clustered_dataset(1, n_users=12)
        stats = PairEvalStats()
        stps_join(ds, 0.05, 0.3, 0.3, algorithm="s-ppj-f", stats=stats)
        assert stats.candidates == stats.bound_pruned + stats.refinements
        assert stats.refinements > 0

    def test_sppj_d_candidates_split(self):
        ds = build_clustered_dataset(2, n_users=12)
        stats = PairEvalStats()
        stps_join(ds, 0.05, 0.3, 0.3, algorithm="s-ppj-d", stats=stats)
        # Zero-total pairs are skipped outside both counters, so <=.
        assert stats.bound_pruned + stats.refinements <= stats.candidates
        assert stats.refinements > 0

    def test_higher_threshold_prunes_more(self):
        ds = build_clustered_dataset(3, n_users=12)
        loose, strict = PairEvalStats(), PairEvalStats()
        stps_join(ds, 0.05, 0.3, 0.1, algorithm="s-ppj-f", stats=loose)
        stps_join(ds, 0.05, 0.3, 0.9, algorithm="s-ppj-f", stats=strict)
        assert strict.bound_pruned >= loose.bound_pruned
        assert strict.refinements <= loose.refinements

    def test_as_dict_lists_all_counters(self):
        stats = PairEvalStats()
        d = stats.as_dict()
        assert set(d) == {
            "early_terminations",
            "candidates",
            "bound_pruned",
            "refinements",
            "users_skipped",
        }
        assert all(v == 0 for v in d.values())


class TestTopKPSkips:
    def test_users_skipped_on_sparse_data(self):
        """TOPK-S-PPJ-P's Lemma 2 bound dismisses a user outright where
        TOPK-S-PPJ-F, which has no per-user bound, skips nobody."""
        ds = build_clustered_dataset(1, n_users=20)
        skipped = {}
        for algorithm in ("topk-s-ppj-p", "topk-s-ppj-f"):
            stats = PairEvalStats()
            got = topk_stps_join(
                ds, 0.05, 0.3, 1, algorithm=algorithm, stats=stats
            )
            assert got == topk_stps_join(ds, 0.05, 0.3, 1, algorithm="naive")
            skipped[algorithm] = stats.users_skipped
        assert skipped["topk-s-ppj-p"] >= 1
        assert skipped["topk-s-ppj-f"] == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_user_bound_is_admissible(self, seed):
        """Lemma 2: for every user, the P plan's bound (from the
        candidate table's ``m_u``) is at least the true sigma with every
        user earlier in the P order."""
        ds = build_clustered_dataset(seed, n_users=12)
        query = TopKQuery(0.05, 0.3, 1)
        state = get_plan("topk", "topk-s-ppj-p").build_state(ds, query)
        order, sizes = state["order"], state["sizes"]
        assert [sizes[u] for u in order] == sorted(sizes.values())
        checked = 0
        for p in range(1, len(order)):
            user = order[p]
            matched = int(state["table"].matched[state["rank_at"][p]])
            max_prev = sizes[order[p - 1]]
            bound = (matched + max_prev) / (sizes[user] + max_prev)
            for earlier in order[:p]:
                sigma = set_similarity(
                    ds.user_objects(user), ds.user_objects(earlier),
                    query.eps_loc, query.eps_doc,
                )
                assert sigma <= bound, (seed, user, earlier)
                checked += sigma > 0.0
        assert checked  # the bound was tested against positive scores


class TestMerge:
    def test_merge_adds_counters(self):
        a, b = PairEvalStats(), PairEvalStats()
        a.early_terminations, a.candidates = 3, 5
        b.early_terminations, b.refinements = 4, 2
        a.merge(b.as_dict())
        assert a.early_terminations == 7
        assert a.candidates == 5
        assert a.refinements == 2

    def test_merge_ignores_unknown_keys(self):
        stats = PairEvalStats()
        stats.merge({"candidates": 1, "not_a_counter": 99})
        assert stats.candidates == 1

    def _parallel_counters_match(self, algorithm, backend, **kw):
        """Per-worker counters merged by the executor must equal an
        inline one-chunk run's — every pair's work is counted once."""
        ds = build_clustered_dataset(4, n_users=12)
        query = STPSJoinQuery(0.05, 0.3, 0.3)
        sequential, seq_tele = PairEvalStats(), Telemetry()
        stps_join(
            ds, 0.05, 0.3, 0.3, algorithm=algorithm, stats=sequential,
            telemetry=seq_tele,
        )
        merged, merged_tele = PairEvalStats(), Telemetry()
        executor = JoinExecutor(workers=3, backend=backend, chunk_size=2, **kw)
        executor.join(
            ds, query, algorithm=algorithm, stats=merged, telemetry=merged_tele
        )
        assert merged.as_dict() == sequential.as_dict()
        assert _funnel(merged_tele) == _funnel(seq_tele)
        assert _funnel(seq_tele)["funnel.cell_pairs"] > 0

    def test_executor_merge_lossless_sppj_f_thread(self):
        self._parallel_counters_match("s-ppj-f", "thread")

    def test_executor_merge_lossless_sppj_b_thread(self):
        self._parallel_counters_match("s-ppj-b", "thread")

    @pytest.mark.skipif(not fork_available, reason="fork start method unavailable")
    def test_executor_merge_lossless_sppj_f_process(self):
        self._parallel_counters_match(
            "s-ppj-f", "process", start_method="fork"
        )

    @pytest.mark.skipif(not fork_available, reason="fork start method unavailable")
    def test_executor_merge_lossless_sppj_b_process(self):
        self._parallel_counters_match(
            "s-ppj-b", "process", start_method="fork"
        )

    def test_executor_without_stats_collects_nothing(self):
        # stats=None must not pay the counting cost nor crash merging.
        ds = build_clustered_dataset(4, n_users=8)
        query = STPSJoinQuery(0.05, 0.3, 0.3)
        executor = JoinExecutor(workers=2, backend="thread", chunk_size=3)
        pairs = executor.join(ds, query, algorithm="s-ppj-f", stats=None)
        assert pairs == executor.join(ds, query, algorithm="s-ppj-f")


class TestMergeUnderRetries:
    """Chunk retries must not double-count: a failed attempt's counters
    are discarded; only the accepted attempt's counters are merged."""

    def _retried_counters_match(self, backend, plan_text, policy_kwargs, **kw):
        from repro import ExecutionPolicy
        from repro.exec.faults import (
            FaultPlan,
            clear_fault_plan,
            install_fault_plan,
        )

        ds = build_clustered_dataset(4, n_users=12)
        query = STPSJoinQuery(0.05, 0.3, 0.3)
        sequential, seq_tele = PairEvalStats(), Telemetry()
        stps_join(
            ds, 0.05, 0.3, 0.3, algorithm="s-ppj-b", stats=sequential,
            telemetry=seq_tele,
        )

        policy = ExecutionPolicy(
            backoff_base=0.001, backoff_jitter=0.0, **policy_kwargs
        )
        merged, merged_tele = PairEvalStats(), Telemetry()
        install_fault_plan(FaultPlan.parse(plan_text))
        try:
            executor = JoinExecutor(
                workers=3, backend=backend, chunk_size=2, policy=policy, **kw
            )
            _, report = executor.join(
                ds, query, algorithm="s-ppj-b", stats=merged, with_report=True,
                telemetry=merged_tele,
            )
        finally:
            clear_fault_plan()
        assert report.completeness == 1.0
        assert merged.as_dict() == sequential.as_dict()
        assert _funnel(merged_tele) == _funnel(seq_tele)
        return report

    def test_retried_chunks_counted_once_thread(self):
        report = self._retried_counters_match(
            "thread", "error@0*2,error@3", {"max_retries": 2}
        )
        assert report.chunks_retried == 3

    def test_degraded_chunks_counted_once_thread(self):
        # times=2 exhausts the pool attempts (initial + 1 retry); the
        # degraded thread rung runs at attempt 2 and succeeds.
        report = self._retried_counters_match(
            "thread", "error@1*2", {"max_retries": 1, "on_failure": "degrade"}
        )
        assert report.chunks_degraded == 1

    @pytest.mark.skipif(not fork_available, reason="fork start method unavailable")
    def test_retried_chunks_counted_once_process(self):
        report = self._retried_counters_match(
            "process", "error@0,crash@2", {"max_retries": 1},
            start_method="fork",
        )
        # The crash always kills a worker, so the pool respawns.  Chunk 0's
        # injected error is recovered either by a charged retry or — when
        # the crash tore the pool down while chunk 0 was still in flight —
        # by the uncharged respawn requeue, so chunks_retried may be 0.
        assert report.pool_respawns >= 1

    def test_sequential_retry_counts_once(self):
        report = self._retried_counters_match(
            "sequential", "error@0*2", {"max_retries": 2}
        )
        assert report.chunks_retried == 2
