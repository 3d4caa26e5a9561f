"""Fault-injection matrix for the resilient execution layer.

Every test here drives the real engine against deterministically injected
faults (:mod:`repro.exec.faults`) and asserts the resilience contract of
``docs/robustness.md``:

* whenever the returned :class:`ExecutionReport` says completeness 1.0,
  the result is **byte-identical** to a fault-free sequential run — across
  algorithms, backends, retries, pool respawns and degraded re-execution;
* under ``on_failure="partial"`` the report's completeness and skipped
  chunk list are exact, and the returned pairs are exactly the completed
  chunks' contribution (canonically sorted);
* deadlines and per-chunk timeouts fire, and the raised errors carry the
  partial report.

The process matrix runs on both transports: ``fork`` (state inherited via
copy-on-write) and ``spawn`` (state rebuilt per worker from a snapshot,
fault plan forwarded through the initializer).
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

import repro
from repro import ExecutionPolicy, stps_join, topk_stps_join
from repro.core.pair_eval import PairEvalStats
from repro.core.query import STPSJoinQuery, TopKQuery, pair_sort_key
from repro.exec import (
    DeadlineExceeded,
    ExecutionFailed,
    ExecutionReport,
    JoinExecutor,
    get_plan,
)
from repro.exec.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    active_fault_plan,
    clear_fault_plan,
    install_fault_plan,
)
from repro.exec.resilience import backoff_delay
from tests.helpers import DifferentialConfig, build_differential_dataset

fork_available = "fork" in multiprocessing.get_all_start_methods()
spawn_available = "spawn" in multiprocessing.get_all_start_methods()

JOIN_ALGOS = ["naive", "s-ppj-c", "s-ppj-b", "s-ppj-f", "s-ppj-d"]
TOPK_ALGOS = ["naive", "topk-s-ppj-f", "topk-s-ppj-s", "topk-s-ppj-p", "topk-s-ppj-d"]

EPS = (0.05, 0.3, 0.2)
K = 7
#: Small chunks so every workload has enough chunks for the fault plans
#: below (pairwise plans get ~30 chunks, user-shard top-k plans ~5).
CHUNK = 2

BACKENDS = [
    ("sequential", None),
    ("thread", None),
    pytest.param(
        ("process", "fork"),
        marks=pytest.mark.skipif(not fork_available, reason="no fork"),
        id="process-fork",
    ),
    pytest.param(
        ("process", "spawn"),
        marks=pytest.mark.skipif(not spawn_available, reason="no spawn"),
        id="process-spawn",
    ),
]

#: A cheap policy for tests: near-zero backoff, fast polling.
def fast_policy(**overrides):
    kwargs = dict(
        max_retries=1,
        backoff_base=0.001,
        backoff_jitter=0.0,
        poll_interval=0.002,
    )
    kwargs.update(overrides)
    return ExecutionPolicy(**kwargs)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    clear_fault_plan()
    yield
    clear_fault_plan()


@pytest.fixture(scope="module")
def dataset():
    return build_differential_dataset(
        DifferentialConfig(
            seed=42, n_users=12, cluster_fraction=0.6, token_skew=0.5
        )
    )


@pytest.fixture(scope="module")
def join_query():
    return STPSJoinQuery(*EPS)


@pytest.fixture(scope="module")
def topk_query():
    return TopKQuery(EPS[0], EPS[1], K)


@pytest.fixture(scope="module")
def expected(dataset):
    """Fault-free sequential results per (kind, algorithm)."""
    cache = {}
    for algo in JOIN_ALGOS:
        cache[("join", algo)] = stps_join(dataset, *EPS, algorithm=algo)
    for algo in TOPK_ALGOS:
        cache[("topk", algo)] = topk_stps_join(
            dataset, EPS[0], EPS[1], K, algorithm=algo
        )
    return cache


def make_executor(backend_spec, policy, workers=2):
    backend, start_method = backend_spec
    return JoinExecutor(
        workers=workers,
        backend=backend,
        start_method=start_method,
        chunk_size=CHUNK,
        policy=policy,
    )


def run(executor, kind, algorithm, dataset, join_query, topk_query):
    if kind == "join":
        return executor.join(
            dataset, join_query, algorithm=algorithm, with_report=True
        )
    return executor.topk(
        dataset, topk_query, algorithm=algorithm, with_report=True
    )


class TestDegradeByteIdentical:
    """The acceptance matrix: every algorithm × every backend, with an
    injected chunk error *and* a worker kill, in ``degrade`` mode the
    result is byte-identical to the fault-free sequential run."""

    @pytest.mark.parametrize("backend_spec", BACKENDS)
    @pytest.mark.parametrize("algorithm", JOIN_ALGOS)
    def test_join(
        self, dataset, join_query, topk_query, expected, algorithm, backend_spec
    ):
        self._check(
            "join", algorithm, backend_spec, dataset, join_query, topk_query,
            expected,
        )

    @pytest.mark.parametrize("backend_spec", BACKENDS)
    @pytest.mark.parametrize("algorithm", TOPK_ALGOS)
    def test_topk(
        self, dataset, join_query, topk_query, expected, algorithm, backend_spec
    ):
        self._check(
            "topk", algorithm, backend_spec, dataset, join_query, topk_query,
            expected,
        )

    @staticmethod
    def _check(
        kind, algorithm, backend_spec, dataset, join_query, topk_query, expected
    ):
        # Chunk 1 errors once (recovered by retry); chunk 3 crashes its
        # worker on the process backends (recovered by pool respawn) and
        # raises SimulatedCrashError elsewhere (recovered by retry).
        install_fault_plan(FaultPlan.parse("error@1,crash@3"))
        executor = make_executor(backend_spec, fast_policy(on_failure="degrade"))
        pairs, report = run(
            executor, kind, algorithm, dataset, join_query, topk_query
        )
        assert report.completeness == 1.0
        assert pairs == expected[(kind, algorithm)]
        assert not report.chunks_skipped


class TestPartialExact:
    """``partial`` mode: exact completeness, exact skipped-chunk list, and
    the returned pairs are exactly the completed chunks' contribution."""

    @pytest.mark.parametrize(
        "backend_spec",
        [
            ("sequential", None),
            ("thread", None),
            pytest.param(
                ("process", "fork"),
                marks=pytest.mark.skipif(not fork_available, reason="no fork"),
                id="process-fork",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "kind,algorithm", [("join", "s-ppj-b"), ("topk", "topk-s-ppj-p")]
    )
    def test_skipped_chunk_is_exact(
        self, dataset, join_query, topk_query, kind, algorithm, backend_spec
    ):
        target = 2
        install_fault_plan(FaultPlan.parse(f"error@{target}*10"))
        policy = fast_policy(max_retries=1, on_failure="partial")
        executor = make_executor(backend_spec, policy)
        pairs, report = run(
            executor, kind, algorithm, dataset, join_query, topk_query
        )
        assert report.chunks_skipped == [target]
        assert report.chunks_completed == report.chunks_total - 1
        assert report.completeness == pytest.approx(
            (report.chunks_total - 1) / report.chunks_total
        )
        assert report.failures and report.failures[0].chunk_index == target

        # Reconstruct the exact expectation from the plan decomposition:
        # every chunk except the skipped one, canonically merged.
        plan = get_plan(kind, algorithm)
        query = join_query if kind == "join" else topk_query
        state = plan.build_state(dataset, query)
        manual = []
        for idx, chunk in enumerate(plan.chunks(dataset, CHUNK)):
            if idx != target:
                manual.extend(plan.run_chunk(state, chunk, None))
        manual.sort(key=pair_sort_key)
        if kind == "topk":
            manual = manual[:K]
        assert pairs == manual


class TestRaiseMode:
    def test_execution_failed_carries_report(self, dataset, join_query, topk_query):
        install_fault_plan(FaultPlan.parse("error@2*10"))
        executor = make_executor(
            ("thread", None), fast_policy(max_retries=1, on_failure="raise")
        )
        with pytest.raises(ExecutionFailed) as err:
            executor.join(dataset, join_query, algorithm="s-ppj-b")
        assert err.value.report is not None
        assert err.value.failures[0].chunk_index == 2
        assert err.value.failures[0].attempts == 2  # initial + 1 retry

    def test_sequential_raise(self, dataset, join_query):
        install_fault_plan(FaultPlan.parse("error@0*10"))
        executor = make_executor(
            ("sequential", None), fast_policy(max_retries=0)
        )
        with pytest.raises(ExecutionFailed):
            executor.join(dataset, join_query, algorithm="s-ppj-b")

    def test_no_policy_propagates_raw_error(self, dataset, join_query):
        # Without a policy the engine stays fail-fast: the injected error
        # surfaces as-is, not wrapped in ExecutionFailed.
        install_fault_plan(FaultPlan.parse("error@0*10"))
        executor = JoinExecutor(workers=2, backend="thread", chunk_size=CHUNK)
        with pytest.raises(InjectedFaultError):
            executor.join(dataset, join_query, algorithm="s-ppj-b")


class TestRetries:
    @pytest.mark.parametrize(
        "backend_spec",
        [
            ("sequential", None),
            ("thread", None),
            pytest.param(
                ("process", "fork"),
                marks=pytest.mark.skipif(not fork_available, reason="no fork"),
                id="process-fork",
            ),
        ],
    )
    def test_retry_recovers_identically(
        self, dataset, join_query, topk_query, expected, backend_spec
    ):
        install_fault_plan(FaultPlan.parse("error@0*2,error@4"))
        executor = make_executor(backend_spec, fast_policy(max_retries=2))
        pairs, report = run(
            executor, "join", "s-ppj-b", dataset, join_query, topk_query
        )
        assert pairs == expected[("join", "s-ppj-b")]
        assert report.chunks_retried == 3  # two for chunk 0, one for chunk 4
        assert report.completeness == 1.0

    def test_stats_counted_exactly_once_despite_retries(
        self, dataset, join_query
    ):
        baseline = PairEvalStats()
        stps_join(dataset, *EPS, algorithm="s-ppj-b", stats=baseline)

        install_fault_plan(FaultPlan.parse("error@0*2,error@3"))
        stats = PairEvalStats()
        executor = make_executor(("thread", None), fast_policy(max_retries=2))
        executor.join(dataset, join_query, algorithm="s-ppj-b", stats=stats)
        assert stats.as_dict() == baseline.as_dict()


class TestBackoffDeterminism:
    def test_same_inputs_same_delay(self):
        policy = ExecutionPolicy(jitter_seed=123)
        assert backoff_delay(policy, 5, 1) == backoff_delay(policy, 5, 1)
        assert backoff_delay(policy, 5, 2) == backoff_delay(policy, 5, 2)

    def test_exponential_growth_and_cap(self):
        policy = ExecutionPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.35,
            backoff_jitter=0.0,
        )
        assert backoff_delay(policy, 0, 1) == pytest.approx(0.1)
        assert backoff_delay(policy, 0, 2) == pytest.approx(0.2)
        assert backoff_delay(policy, 0, 3) == pytest.approx(0.35)  # capped
        assert backoff_delay(policy, 0, 9) == pytest.approx(0.35)

    def test_jitter_bounds_and_seed_sensitivity(self):
        a = ExecutionPolicy(backoff_base=1.0, backoff_jitter=0.5, jitter_seed=1)
        b = ExecutionPolicy(backoff_base=1.0, backoff_jitter=0.5, jitter_seed=2)
        da = backoff_delay(a, 3, 1)
        db = backoff_delay(b, 3, 1)
        assert 1.0 <= da <= 1.5 and 1.0 <= db <= 1.5
        assert da != db  # different seeds, different (deterministic) jitter

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            backoff_delay(ExecutionPolicy(), 0, 0)


class TestCrashRecovery:
    """A killed worker process is detected, the pool is respawned once,
    and the in-flight chunks are requeued without charging retries."""

    @pytest.mark.parametrize(
        "start_method",
        [
            pytest.param(
                "fork",
                marks=pytest.mark.skipif(not fork_available, reason="no fork"),
            ),
            pytest.param(
                "spawn",
                marks=pytest.mark.skipif(not spawn_available, reason="no spawn"),
            ),
        ],
    )
    def test_single_worker_kill(
        self, dataset, join_query, topk_query, expected, start_method
    ):
        install_fault_plan(FaultPlan.parse("crash@1"))
        # max_retries=0: recovery must come from the respawn requeue, not
        # from the retry budget.
        executor = make_executor(
            ("process", start_method), fast_policy(max_retries=0)
        )
        pairs, report = run(
            executor, "join", "s-ppj-b", dataset, join_query, topk_query
        )
        assert pairs == expected[("join", "s-ppj-b")]
        assert report.pool_respawns == 1
        assert report.completeness == 1.0

    def test_thread_backend_crash_degenerates_to_error(
        self, dataset, join_query, topk_query, expected
    ):
        # Not a child process -> SimulatedCrashError -> normal retry path.
        install_fault_plan(FaultPlan.parse("crash@1"))
        executor = make_executor(("thread", None), fast_policy(max_retries=1))
        pairs, report = run(
            executor, "join", "s-ppj-b", dataset, join_query, topk_query
        )
        assert pairs == expected[("join", "s-ppj-b")]
        assert report.pool_respawns == 0
        assert report.chunks_retried == 1


class TestHangsAndTimeouts:
    @pytest.mark.parametrize(
        "backend_spec",
        [
            ("thread", None),
            pytest.param(
                ("process", "fork"),
                marks=pytest.mark.skipif(not fork_available, reason="no fork"),
                id="process-fork",
            ),
        ],
    )
    def test_chunk_timeout_then_retry_recovers(
        self, dataset, join_query, topk_query, expected, backend_spec
    ):
        # Chunk 0 hangs 5s on its first attempt only; the 0.3s timeout
        # abandons it and the retry (no hang) completes normally.
        install_fault_plan(FaultPlan.parse("hang@0:5"))
        executor = make_executor(
            backend_spec, fast_policy(max_retries=1, chunk_timeout=0.3)
        )
        pairs, report = run(
            executor, "join", "s-ppj-b", dataset, join_query, topk_query
        )
        assert pairs == expected[("join", "s-ppj-b")]
        assert report.chunks_retried == 1
        assert report.completeness == 1.0

    def test_persistent_hang_goes_partial(
        self, dataset, join_query, topk_query
    ):
        install_fault_plan(FaultPlan.parse("hang@0:5*10"))
        executor = make_executor(
            ("thread", None),
            fast_policy(max_retries=0, chunk_timeout=0.2, on_failure="partial"),
        )
        pairs, report = run(
            executor, "join", "s-ppj-b", dataset, join_query, topk_query
        )
        assert report.chunks_skipped == [0]
        assert report.completeness < 1.0
        assert "timed out" in report.failures[0].error or "chunk_timeout" in report.failures[0].error


class TestDeadline:
    def _hang_everything(self, n=40, seconds=10.0):
        install_fault_plan(
            FaultPlan(
                {i: FaultSpec("hang", times=10, seconds=seconds) for i in range(n)}
            )
        )

    @pytest.mark.parametrize(
        "backend_spec", [("sequential", None), ("thread", None)]
    )
    def test_deadline_raises_with_partial_report(
        self, dataset, join_query, backend_spec
    ):
        # Short hangs: the sequential backend cannot interrupt a chunk in
        # progress, so a long sleep would serialize into the test's wall
        # clock.  0.5s per hung chunk > the 0.3s deadline is enough.
        self._hang_everything(seconds=0.5)
        executor = make_executor(backend_spec, fast_policy(deadline=0.3))
        with pytest.raises(DeadlineExceeded) as err:
            executor.join(dataset, join_query, algorithm="s-ppj-b")
        report = err.value.report
        assert report is not None and report.deadline_hit
        assert report.completeness < 1.0

    def test_deadline_partial_returns_prefix_correct_pairs(
        self, dataset, join_query, topk_query, expected
    ):
        # Only the first chunks hang: the rest complete within the budget,
        # so the partial result is a non-empty, canonically sorted subset
        # of the sequential answer with exact scores.
        install_fault_plan(FaultPlan.parse("hang@0:10*10,hang@1:10*10"))
        executor = make_executor(
            ("thread", None),
            fast_policy(
                deadline=1.0, chunk_timeout=0.1, max_retries=0,
                on_failure="partial",
            ),
        )
        pairs, report = run(
            executor, "join", "s-ppj-b", dataset, join_query, topk_query
        )
        assert report.completeness < 1.0
        full = expected[("join", "s-ppj-b")]
        assert set(pairs) <= set(full)
        assert pairs == sorted(pairs, key=pair_sort_key)
        # every skipped chunk accounted for
        assert (
            report.chunks_completed + len(set(report.chunks_skipped))
            == report.chunks_total
        )

    def test_deadline_without_faults_is_not_hit(self, dataset, join_query):
        executor = make_executor(("thread", None), fast_policy(deadline=60.0))
        _, report = executor.join(
            dataset, join_query, algorithm="s-ppj-b", with_report=True
        )
        assert not report.deadline_hit
        assert report.completeness == 1.0


class TestFaultPlanMechanics:
    def test_parse_serialize_round_trip(self):
        text = "crash@5,error@2,hang@7:0.3*2"
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.serialize()) == plan
        assert plan.serialize() == "error@2,crash@5,hang@7:0.3*2"

    def test_should_fire_is_pure_and_attempt_bounded(self):
        plan = FaultPlan.parse("error@3*2")
        assert plan.should_fire(3, 0)
        assert plan.should_fire(3, 1)
        assert not plan.should_fire(3, 2)
        assert not plan.should_fire(4, 0)
        # pure: repeated queries do not consume the fault
        assert plan.should_fire(3, 0)

    def test_parse_rejects_malformed(self):
        for bad in ("boom@1", "error", "error@x", "error@1*0", "error@-1"):
            with pytest.raises(ValueError):
                FaultPlan.parse(bad)

    def test_parse_rejects_duplicate_chunk(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan.parse("error@1,crash@1")

    def test_env_activation(self, monkeypatch, dataset, join_query, expected):
        monkeypatch.setenv(FAULT_PLAN_ENV, "error@0")
        assert active_fault_plan() == FaultPlan.parse("error@0")
        executor = make_executor(("thread", None), fast_policy(max_retries=1))
        pairs, report = executor.join(
            dataset, join_query, algorithm="s-ppj-b", with_report=True
        )
        assert pairs == expected[("join", "s-ppj-b")]
        assert report.chunks_retried == 1

    def test_programmatic_beats_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "error@0")
        install_fault_plan(FaultPlan.parse("error@9"))
        assert active_fault_plan() == FaultPlan.parse("error@9")
        clear_fault_plan()
        assert active_fault_plan() == FaultPlan.parse("error@0")

    @pytest.mark.skipif(not spawn_available, reason="no spawn")
    def test_plan_reaches_spawn_workers(
        self, dataset, join_query, topk_query, expected
    ):
        # The spawn transport cannot inherit the module global; the
        # initializer must carry the serialized plan.  If it did not, the
        # error fault would never fire and chunks_retried would be 0.
        install_fault_plan(FaultPlan.parse("error@1"))
        executor = make_executor(
            ("process", "spawn"), fast_policy(max_retries=1)
        )
        pairs, report = run(
            executor, "join", "s-ppj-b", dataset, join_query, topk_query
        )
        assert pairs == expected[("join", "s-ppj-b")]
        assert report.chunks_retried == 1


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": 0.0},
            {"chunk_timeout": -1.0},
            {"max_retries": -1},
            {"backoff_factor": 0.5},
            {"backoff_jitter": 1.5},
            {"on_failure": "explode"},
            {"respawn_limit": -1},
            {"poll_interval": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)

    def test_exported_from_repro(self):
        assert repro.ExecutionPolicy is ExecutionPolicy
        assert repro.ExecutionReport is ExecutionReport


class TestReportSurface:
    def test_empty_workload_is_complete(self, join_query):
        from repro import STDataset

        empty = STDataset.from_records([])
        executor = make_executor(("thread", None), fast_policy())
        pairs, report = executor.join(empty, join_query, with_report=True)
        assert pairs == []
        assert report.completeness == 1.0 and report.complete

    def test_summary_mentions_the_interesting_bits(
        self, dataset, join_query, topk_query
    ):
        install_fault_plan(FaultPlan.parse("error@0*10"))
        executor = make_executor(
            ("thread", None), fast_policy(max_retries=0, on_failure="partial")
        )
        _, report = run(
            executor, "join", "s-ppj-b", dataset, join_query, topk_query
        )
        text = report.summary()
        assert "completeness" in text
        assert "skipped [0]" in text
        assert "thread" in text

    def test_last_report_is_stored(self, dataset, join_query):
        executor = make_executor(("sequential", None), fast_policy())
        executor.join(dataset, join_query, algorithm="s-ppj-b")
        assert executor.last_report is not None
        assert executor.last_report.complete

    def test_api_policy_routes_through_engine(self, dataset, expected):
        pairs, report = stps_join(
            dataset, *EPS, algorithm="s-ppj-b",
            policy=fast_policy(), with_report=True,
        )
        assert pairs == expected[("join", "s-ppj-b")]
        assert report.backend == "sequential"  # policy alone stays inline

    def test_api_topk_policy(self, dataset, expected):
        pairs, report = topk_stps_join(
            dataset, EPS[0], EPS[1], K, algorithm="topk-s-ppj-p",
            policy=fast_policy(), with_report=True,
        )
        assert pairs == expected[("topk", "topk-s-ppj-p")]
        assert report.complete


class TestOneDispatchLoop:
    """A run without a policy goes through the same dispatch loop as a run
    with one, under the exact policy (no deadline, no retries, no
    respawns)."""

    @pytest.mark.parametrize("activation", ["install", "env"])
    @pytest.mark.parametrize("route", ["plain", "with_report", "telemetry"])
    def test_fault_plan_fires_on_every_sequential_route(
        self, monkeypatch, dataset, route, activation
    ):
        if activation == "install":
            install_fault_plan(FaultPlan.parse("error@0*10"))
        else:
            monkeypatch.setenv(FAULT_PLAN_ENV, "error@0*10")
        extra = {
            "plain": {},
            "with_report": {"with_report": True},
            "telemetry": {"telemetry": repro.Telemetry()},
        }[route]
        with pytest.raises(InjectedFaultError):
            stps_join(dataset, *EPS, algorithm="s-ppj-b", **extra)

    @pytest.mark.parametrize(
        "start_method",
        [
            pytest.param(
                "fork",
                marks=pytest.mark.skipif(not fork_available, reason="no fork"),
            ),
            pytest.param(
                "spawn",
                marks=pytest.mark.skipif(not spawn_available, reason="no spawn"),
            ),
        ],
    )
    def test_worker_crash_without_policy_raises(self, tmp_path, start_method):
        # Run in a child interpreter with a timeout: if the engine ever
        # waits on a task whose worker died, the hang stays out of the
        # suite.
        import os
        import subprocess
        import sys

        script = tmp_path / "crash_run.py"
        script.write_text(
            "from repro.core.query import STPSJoinQuery\n"
            "from repro.exec import ExecutionFailed, JoinExecutor\n"
            "from repro.exec.faults import FaultPlan, install_fault_plan\n"
            "from tests.helpers import DifferentialConfig, "
            "build_differential_dataset\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    dataset = build_differential_dataset(DifferentialConfig(\n"
            "        seed=42, n_users=12, cluster_fraction=0.6, "
            "token_skew=0.5))\n"
            "    install_fault_plan(FaultPlan.parse('crash@1'))\n"
            f"    executor = JoinExecutor(workers=2, backend='process', "
            f"start_method={start_method!r}, chunk_size={CHUNK})\n"
            "    try:\n"
            f"        executor.join(dataset, STPSJoinQuery(*{EPS!r}), "
            "algorithm='s-ppj-b')\n"
            "    except ExecutionFailed as exc:\n"
            "        print('FAILED', exc)\n"
            "    else:\n"
            "        print('RETURNED')\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root, env.get("PYTHONPATH", "")]
        )
        env.pop(FAULT_PLAN_ENV, None)
        done = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=60, env=env, cwd=root,
        )
        assert done.returncode == 0, done.stderr
        assert "FAILED" in done.stdout
        assert "respawn budget (0) is exhausted" in done.stdout

    @pytest.mark.parametrize("on_failure", ["raise", "partial"])
    def test_deadline_covers_state_build(
        self, monkeypatch, dataset, join_query, on_failure
    ):
        plan = get_plan("join", "s-ppj-b")
        build = plan.build_state

        def slow_build(*args, **kwargs):
            import time

            time.sleep(0.3)
            return build(*args, **kwargs)

        monkeypatch.setattr(plan, "build_state", slow_build)
        executor = JoinExecutor(
            backend="sequential",
            policy=fast_policy(deadline=0.1, on_failure=on_failure),
        )
        if on_failure == "raise":
            with pytest.raises(DeadlineExceeded) as err:
                executor.join(dataset, join_query, algorithm="s-ppj-b")
            report = err.value.report
            assert report.deadline_hit
            assert report.chunks_total >= 1
            assert report.chunks_completed == 0
            return
        pairs, report = executor.join(
            dataset, join_query, algorithm="s-ppj-b", with_report=True
        )
        assert pairs == []
        assert report.deadline_hit
        assert report.chunks_total >= 1
        assert report.chunks_completed == 0
        assert sorted(report.chunks_skipped) == list(range(report.chunks_total))

    @pytest.mark.parametrize(
        "backend_spec",
        [
            ("sequential", None),
            ("thread", None),
            pytest.param(
                ("process", "fork"),
                marks=pytest.mark.skipif(not fork_available, reason="no fork"),
                id="process-fork",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "kind,algorithm", [("join", "s-ppj-f"), ("topk", "topk-s-ppj-p")]
    )
    def test_no_policy_equals_exact_policy(
        self, dataset, join_query, topk_query, backend_spec, kind, algorithm
    ):
        outcomes = []
        for policy in (None, ExecutionPolicy(max_retries=0, respawn_limit=0)):
            tele = repro.Telemetry()
            executor = make_executor(backend_spec, policy)
            query = join_query if kind == "join" else topk_query
            call = executor.join if kind == "join" else executor.topk
            pairs, report = call(
                dataset, query, algorithm=algorithm, with_report=True,
                telemetry=tele,
            )
            outcomes.append((
                pairs,
                tele.work_counters(),
                report.chunks_total,
                report.chunks_completed,
                report.chunk_attempts,
            ))
        assert outcomes[0][0] and outcomes[0][1]
        assert outcomes[0] == outcomes[1]
