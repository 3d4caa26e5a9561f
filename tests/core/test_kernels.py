"""The vectorized kernel backend against its scalar twins.

Three layers of pinning for :mod:`repro.core.kernels`:

* backend resolution — explicit argument beats ``REPRO_KERNEL`` beats
  auto-detection, and invalid choices fail loudly;
* hypothesis property tests driving the numpy distance / token
  intersection kernels against the scalar evaluators on adversarial
  inputs (empty documents, duplicate tokens, identical coordinates,
  distances exactly on the ``eps_loc`` boundary) — results must match to
  the last float bit and, with a metrics registry active, the funnel
  counters must tally identically;
* whole-algorithm differentials: every join / top-k / knn algorithm
  under ``REPRO_KERNEL=numpy`` vs ``REPRO_KERNEL=python`` with
  byte-identical results and zero work-counter drift, the invariant
  ``repro obs diff`` gates on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import STDataset, Telemetry, stps_join, topk_stps_join
from repro.core import kernels
from repro.core.knn import similar_users
from repro.core.pair_eval import ppj_b_pair, ppj_c_pair
from repro.obs import runtime as _obs
from repro.obs.metrics import MetricsRegistry
from repro.stindex.stgrid import STGridIndex
from tests.helpers import build_random_dataset

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy unavailable"
)


# ---------------------------------------------------------------------------
# backend resolution


class TestResolveKernel:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV, "numpy")
        assert kernels.resolve_kernel("python") == "python"

    def test_env_beats_auto(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV, "python")
        assert kernels.resolve_kernel() == "python"

    def test_auto_resolves_numpy_when_available(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV, raising=False)
        assert kernels.resolve_kernel() == "numpy"
        assert kernels.resolve_kernel("auto") == "numpy"

    def test_invalid_explicit_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve_kernel("cuda")

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV, "fortran")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve_kernel()

    def test_invalid_env_rejected_at_api_entry(self, monkeypatch):
        """Even algorithms that never dispatch on the kernel (s-ppj-f,
        naive, the sequential top-k path) must reject a bogus backend."""
        monkeypatch.setenv(kernels.KERNEL_ENV, "fortran")
        dataset = STDataset.from_records(
            [(0, 0.0, 0.0, ["a"]), (1, 0.0, 0.0, ["a", "b"])]
        )
        for algorithm in ("s-ppj-f", "naive"):
            with pytest.raises(ValueError, match="unknown kernel backend"):
                stps_join(dataset, 0.05, 0.3, 0.2, algorithm=algorithm)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            topk_stps_join(dataset, 0.05, 0.3, 2, algorithm="naive")


# ---------------------------------------------------------------------------
# property tests: numpy kernels vs scalar twins on adversarial inputs

#: Coordinates snap to a grid of pitch eps_loc/2, so identical points and
#: pairs at *exactly* the eps_loc boundary (distance == 2 grid steps both
#: axes is sqrt(2)*eps, one axis is exactly eps) occur constantly.
_EPS_LOC = 0.01
_GRID = _EPS_LOC / 2.0
_TOKENS = ["a", "b", "c", "d", "e"]


@st.composite
def adversarial_datasets(draw):
    n_users = draw(st.integers(min_value=2, max_value=4))
    records = []
    for user in range(n_users):
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            x = draw(st.integers(min_value=0, max_value=6)) * _GRID
            y = draw(st.integers(min_value=0, max_value=6)) * _GRID
            # Lists, not sets: duplicate tokens in the input are part of
            # the contract (the model canonicalizes); empty docs too.
            toks = draw(st.lists(st.sampled_from(_TOKENS), max_size=4))
            records.append((user, x, y, toks))
    return STDataset.from_records(records)


_QUERY_GRID = [(0.3, 0.3), (0.5, 0.5), (1.0, 0.2)]


def _scores_hex(pairs):
    return [(p.user_a, p.user_b, p.score.hex()) for p in pairs]


@settings(max_examples=25, deadline=None)
@given(dataset=adversarial_datasets(), q=st.sampled_from(_QUERY_GRID))
def test_batch_kernel_matches_scalar_joins(dataset, q):
    """The fused batch tier is bit-identical to the scalar traversals."""
    eps_doc, eps_user = q
    for algorithm in ("s-ppj-c", "s-ppj-b"):
        scalar, batched = (
            stps_join(
                dataset, _EPS_LOC, eps_doc, eps_user, algorithm=algorithm,
                kernel=kernel,
            )
            for kernel in ("python", "numpy")
        )
        assert _scores_hex(batched) == _scores_hex(scalar)


def _counted_pairs(dataset, eps_doc, kernel, pair_fn):
    """All-pairs matched counts + funnel counters under a live registry."""
    index = STGridIndex.build(dataset, _EPS_LOC, with_tokens=False)
    users = dataset.users
    registry = MetricsRegistry()
    previous = _obs.activate(registry)
    try:
        matched = [
            pair_fn(index, users[i], users[j], eps_doc, kernel)
            for i in range(len(users))
            for j in range(i)
        ]
    finally:
        _obs.restore(previous)
    counters = {
        name: value
        for name, value in registry.counter_values().items()
        if not name.startswith("kernel.")
    }
    return matched, counters


def _ppj_c(index, a, b, eps_doc, kernel):
    return ppj_c_pair(index, a, b, _EPS_LOC, eps_doc, None, kernel=kernel)


@settings(max_examples=25, deadline=None)
@given(dataset=adversarial_datasets(), eps_doc=st.sampled_from([0.2, 0.5, 1.0]))
def test_counted_kernels_match_scalar_funnel(dataset, eps_doc):
    """With metrics active the numpy kernels count exactly like scalar."""
    scalar_matched, scalar_counters = _counted_pairs(
        dataset, eps_doc, "python", _ppj_c
    )
    numpy_matched, numpy_counters = _counted_pairs(
        dataset, eps_doc, "numpy", _ppj_c
    )
    assert numpy_matched == scalar_matched
    assert numpy_counters == scalar_counters


def test_probe_path_parity_dense_cell():
    """Packs above the small-join limit take the probe kernel; its
    accounting (length/positional pruning, encounter order) must match
    the scalar probe loop exactly on a dense single-cell workload."""
    records = []
    for user in range(3):
        for i in range(45):  # 45*45 pairs >> the small-join limit
            toks = [_TOKENS[(user + i + j) % len(_TOKENS)] for j in range(3)]
            records.append((user, 0.005, 0.005, toks))
    dataset = STDataset.from_records(records)

    def pair_b(index, a, b, eps_doc, kernel):
        return ppj_b_pair(
            index, a, b, _EPS_LOC, eps_doc, 0.1, 45, 45, None, kernel=kernel
        )

    for pair_fn in (_ppj_c, pair_b):
        scalar_matched, scalar_counters = _counted_pairs(
            dataset, 0.4, "python", pair_fn
        )
        numpy_matched, numpy_counters = _counted_pairs(
            dataset, 0.4, "numpy", pair_fn
        )
        assert numpy_matched == scalar_matched
        assert numpy_counters == scalar_counters
    assert any(
        n * n > 36 for n in (45,)
    )  # guard: the workload really exceeds the small-join limit


# ---------------------------------------------------------------------------
# whole-algorithm differentials: numpy vs python, results + counters

_JOIN_ALGOS = ("naive", "s-ppj-c", "s-ppj-b", "s-ppj-f", "s-ppj-d")
_TOPK_ALGOS = ("topk-s-ppj-f", "topk-s-ppj-s", "topk-s-ppj-p", "topk-s-ppj-d")


@pytest.fixture(scope="module")
def diff_dataset():
    return build_random_dataset(seed=207, n_users=10, max_objects=8)


def _env_runs(monkeypatch, fn):
    out = {}
    for backend in ("numpy", "python"):
        monkeypatch.setenv(kernels.KERNEL_ENV, backend)
        out[backend] = fn()
    return out


@pytest.mark.parametrize("algorithm", _JOIN_ALGOS)
def test_join_differential_env(diff_dataset, algorithm, monkeypatch):
    runs = _env_runs(
        monkeypatch,
        lambda: stps_join(
            diff_dataset, 0.05, 0.3, 0.2, algorithm=algorithm
        ),
    )
    assert _scores_hex(runs["numpy"]) == _scores_hex(runs["python"])


@pytest.mark.parametrize("algorithm", _JOIN_ALGOS)
def test_join_counter_drift_env(diff_dataset, algorithm, monkeypatch):
    def run():
        tele = Telemetry()
        pairs = stps_join(
            diff_dataset, 0.05, 0.3, 0.2, algorithm=algorithm, telemetry=tele
        )
        return pairs, tele.work_counters()

    runs = _env_runs(monkeypatch, run)
    assert _scores_hex(runs["numpy"][0]) == _scores_hex(runs["python"][0])
    assert runs["numpy"][1] == runs["python"][1]


@pytest.mark.parametrize("algorithm", _TOPK_ALGOS)
def test_topk_differential_env(diff_dataset, algorithm, monkeypatch):
    def run():
        tele = Telemetry()
        pairs = topk_stps_join(
            diff_dataset, 0.05, 0.3, 5, algorithm=algorithm, telemetry=tele
        )
        return pairs, tele.work_counters()

    runs = _env_runs(monkeypatch, run)
    assert _scores_hex(runs["numpy"][0]) == _scores_hex(runs["python"][0])
    assert runs["numpy"][1] == runs["python"][1]


def test_knn_differential_env(diff_dataset, monkeypatch):
    probe = diff_dataset.users[0]
    runs = _env_runs(
        monkeypatch,
        lambda: similar_users(diff_dataset, probe, 0.05, 0.3, 4),
    )
    assert [
        (u, s.hex()) for u, s in runs["numpy"]
    ] == [(u, s.hex()) for u, s in runs["python"]]


def test_engine_backends_identical_under_numpy(diff_dataset, monkeypatch):
    monkeypatch.setenv(kernels.KERNEL_ENV, "numpy")
    sequential = stps_join(diff_dataset, 0.05, 0.3, 0.2, algorithm="s-ppj-b")
    for kw in (
        {"workers": 2, "backend": "thread"},
        {"workers": 2, "backend": "process", "start_method": "fork"},
    ):
        got = stps_join(
            diff_dataset, 0.05, 0.3, 0.2, algorithm="s-ppj-b", **kw
        )
        assert _scores_hex(got) == _scores_hex(sequential)


# ---------------------------------------------------------------------------
# surfacing: report, explain and serve record the backend


def test_report_and_explain_record_kernel(diff_dataset):
    _pairs, report, explain = stps_join(
        diff_dataset, 0.05, 0.3, 0.2, algorithm="s-ppj-c",
        kernel="numpy", with_report=True, explain=True,
    )
    assert report.kernel == "numpy"
    assert "numpy kernels" in report.summary()
    assert explain.kernel == "numpy"
    assert explain.as_dict()["kernel"] == "numpy"
    # The backend-specific batch counter lives in its own bucket, never
    # in the deterministic work counters the diff tooling gates on.
    assert not any(
        name.startswith("kernel.") for name in explain.work_dict()["counters"]
    )
    assert explain.kernel_counters.get("kernel.numpy_batches", 0) > 0


def test_serve_records_kernel_backend(diff_dataset):
    from repro.serve.service import JoinService

    service = JoinService()
    service.register_dataset("d", diff_dataset)
    request = {
        "dataset": "d", "type": "join", "algorithm": "s-ppj-b",
        "eps_loc": 0.05, "eps_doc": 0.3, "eps_user": 0.2,
    }
    # Explicit kernels: the server otherwise resolves via REPRO_KERNEL,
    # which the CI matrix pins to either backend.
    numpy_response = service.query(dict(request, kernel="numpy"))
    python_response = service.query(dict(request, kernel="python"))
    assert numpy_response["kernel"] == "numpy"
    assert python_response["kernel"] == "python"
    assert numpy_response["pairs"] == python_response["pairs"]
    body = service.metrics_text()
    assert "repro_serve_kernel_numpy_total 1" in body
    assert "repro_serve_kernel_python_total 1" in body
