"""The two pair-evaluation tiers agree, and nothing selects between them
but whether work counters were requested.

Plain S-PPJ-C/B runs take the fused numpy batch kernel
(:mod:`repro.core.kernels`); every other run — and any S-PPJ-C/B run
with ``stats=`` or telemetry — takes the scalar evaluators of
:mod:`repro.core.pair_eval`.  Pinned here:

* hypothesis property tests driving the fused kernel against the scalar
  traversals on adversarial inputs (empty documents, duplicate tokens,
  identical coordinates, distances exactly on the ``eps_loc`` boundary) —
  results must match to the last float bit;
* telemetry on and off give byte-identical results for every algorithm;
* the removed kernel switch stays removed: ``kernel=`` is rejected and a
  leftover ``REPRO_KERNEL`` in the environment changes nothing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import STDataset, Telemetry, stps_join, topk_stps_join
from repro.core import kernels
from repro.core.knn import similar_users
from repro.core.pair_eval import ppj_b_pair, ppj_c_pair
from repro.core.query import UserPair, pair_sort_key
from repro.obs import runtime as _obs
from repro.obs.metrics import MetricsRegistry
from repro.stindex.stgrid import STGridIndex
from tests.helpers import build_clustered_dataset

# ---------------------------------------------------------------------------
# what is left of the kernel switch


class TestResolveKernel:
    def test_auto_resolves_numpy_when_available(self):
        # Benchmark host descriptions still name the batch tier.
        assert kernels.resolve_kernel() == "numpy"

    def test_invalid_explicit_raises(self):
        """There is no ``kernel=`` selector any more: every value is
        rejected by the plans it would reach."""
        dataset = STDataset.from_records(
            [(0, 0.0, 0.0, ["a"]), (1, 0.0, 0.0, ["a", "b"])]
        )
        for kernel in ("numpy", "python"):
            with pytest.raises(TypeError, match="kernel"):
                stps_join(dataset, 0.05, 0.3, 0.2, algorithm="s-ppj-b",
                          kernel=kernel)
            with pytest.raises(TypeError, match="kernel"):
                topk_stps_join(dataset, 0.05, 0.3, 2, kernel=kernel)


# ---------------------------------------------------------------------------
# property tests: the fused tier vs the scalar traversals

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


def _scalar_join(dataset, eps_doc, eps_user, algorithm):
    """The scalar route: every pair through ppj_c_pair / ppj_b_pair on a
    prebuilt grid, in the engine's result order."""
    index = STGridIndex.build(dataset, _EPS_LOC, with_tokens=False)
    users = dataset.users
    sizes = [len(dataset.user_objects(u)) for u in users]
    out = []
    for i in range(len(users)):
        for j in range(i + 1, len(users)):
            total = sizes[i] + sizes[j]
            if algorithm == "s-ppj-c":
                matched = ppj_c_pair(index, users[i], users[j], _EPS_LOC, eps_doc)
                score = matched / total if total else 0.0
            else:
                score = ppj_b_pair(
                    index, users[i], users[j], _EPS_LOC, eps_doc, eps_user,
                    sizes[i], sizes[j],
                )
            if total and score >= eps_user:
                out.append(UserPair(users[i], users[j], score))
    return _scores_hex(sorted(out, key=pair_sort_key))


@settings(max_examples=25, deadline=None)
@given(dataset=adversarial_datasets(), q=st.sampled_from(_QUERY_GRID))
def test_batch_kernel_matches_scalar_joins(dataset, q):
    """The fused batch tier is bit-identical to the scalar traversals."""
    eps_doc, eps_user = q
    for algorithm in ("s-ppj-c", "s-ppj-b"):
        batched = stps_join(dataset, _EPS_LOC, eps_doc, eps_user,
                            algorithm=algorithm)
        assert _scores_hex(batched) == _scalar_join(
            dataset, eps_doc, eps_user, algorithm
        )


def test_kernel_gathers_any_user_order_from_the_columns():
    """The kernel sorts the build's cell columns by the *given* user
    order; a permuted order and a user subset count the same matches."""
    dataset = build_clustered_dataset(5, n_users=10)
    index = STGridIndex.build(dataset, _EPS_LOC, with_tokens=False)
    order = list(reversed(dataset.users))[:7]
    batch = kernels.batch_kernel_for(index, order)
    assert batch.n_objects == sum(len(dataset.user_objects(u)) for u in order)
    matched = 0
    for i in range(len(order)):
        counts = batch.row_counts(i, 0, len(order), _EPS_LOC ** 2, 0.3)
        for j, count in enumerate(counts.tolist()):
            if j != i:
                assert count == ppj_c_pair(index, order[i], order[j], _EPS_LOC, 0.3)
                matched += count
    assert matched  # the orders were compared on real matches


def test_kernel_needs_a_bulk_built_index():
    dataset = build_clustered_dataset(5, n_users=4)
    index = STGridIndex(dataset.bounds, _EPS_LOC, with_tokens=False)
    for user in dataset.users:
        index.add_user(user, dataset.user_objects(user))
    with pytest.raises(ValueError, match="STGridIndex.build"):
        kernels.batch_kernel_for(index, dataset.users)


def test_probe_path_parity_dense_cell():
    """Packs above the small-join limit take the PPJOIN probe loop; on a
    dense single-cell workload its matched counts, counted or not, equal
    the fused kernel's."""
    records = []
    for user in range(3):
        for i in range(45):  # 45*45 pairs >> the small-join limit
            toks = [_TOKENS[(user + i + j) % len(_TOKENS)] for j in range(3)]
            records.append((user, 0.005, 0.005, toks))
    dataset = STDataset.from_records(records)
    index = STGridIndex.build(dataset, _EPS_LOC, with_tokens=False)
    users = dataset.users
    batch = kernels.batch_kernel_for(index, users)
    fused = [
        int(count)
        for i in range(len(users))
        for count in batch.row_counts(i, i + 1, len(users), _EPS_LOC ** 2, 0.4)
    ]
    pairs = [(i, j) for i in range(len(users)) for j in range(i + 1, len(users))]
    plain = [ppj_c_pair(index, users[i], users[j], _EPS_LOC, 0.4) for i, j in pairs]
    registry = MetricsRegistry()
    previous = _obs.activate(registry)
    try:
        counted = [
            ppj_c_pair(index, users[i], users[j], _EPS_LOC, 0.4) for i, j in pairs
        ]
    finally:
        _obs.restore(previous)
    assert plain == counted == fused
    assert max(fused) > 0
    counters = registry.counter_values()
    # One cell, one probe join per pair, every candidate pair covered.
    assert counters["funnel.cell_pairs"] == len(pairs)
    assert counters["funnel.object_pairs"] == len(pairs) * 45 * 45


# ---------------------------------------------------------------------------
# telemetry on and off: byte-identical results for every algorithm

_JOIN_ALGOS = ("naive", "s-ppj-c", "s-ppj-b", "s-ppj-f", "s-ppj-d")
_TOPK_ALGOS = ("topk-s-ppj-f", "topk-s-ppj-s", "topk-s-ppj-p", "topk-s-ppj-d")


@pytest.fixture(scope="module")
def diff_dataset():
    # Clustered users, so every algorithm returns pairs at these thresholds.
    return build_clustered_dataset(207, n_users=12)


@pytest.mark.parametrize("algorithm", _JOIN_ALGOS)
def test_join_identical_with_and_without_telemetry(diff_dataset, algorithm):
    plain = stps_join(diff_dataset, 0.05, 0.3, 0.2, algorithm=algorithm)
    observed = stps_join(
        diff_dataset, 0.05, 0.3, 0.2, algorithm=algorithm,
        telemetry=Telemetry(),
    )
    assert plain
    assert _scores_hex(observed) == _scores_hex(plain)


@pytest.mark.parametrize("algorithm", ("naive",) + _TOPK_ALGOS)
def test_topk_identical_with_and_without_telemetry(diff_dataset, algorithm):
    plain = topk_stps_join(diff_dataset, 0.05, 0.3, 5, algorithm=algorithm)
    observed = topk_stps_join(
        diff_dataset, 0.05, 0.3, 5, algorithm=algorithm,
        telemetry=Telemetry(),
    )
    assert plain
    assert _scores_hex(observed) == _scores_hex(plain)


# ---------------------------------------------------------------------------
# a leftover REPRO_KERNEL in the environment is inert


def _env_runs(monkeypatch, fn):
    out = {}
    for value in (None, "python", "numpy", "fortran"):
        if value is None:
            monkeypatch.delenv("REPRO_KERNEL", raising=False)
        else:
            monkeypatch.setenv("REPRO_KERNEL", value)
        out[value] = fn()
    return out


def _all_equal(runs):
    first = runs[None]
    return all(run == first for run in runs.values())


@pytest.mark.parametrize("algorithm", _JOIN_ALGOS)
def test_join_differential_env(diff_dataset, algorithm, monkeypatch):
    runs = _env_runs(
        monkeypatch,
        lambda: _scores_hex(
            stps_join(diff_dataset, 0.05, 0.3, 0.2, algorithm=algorithm)
        ),
    )
    assert _all_equal(runs)


@pytest.mark.parametrize("algorithm", _JOIN_ALGOS)
def test_join_counter_drift_env(diff_dataset, algorithm, monkeypatch):
    def run():
        tele = Telemetry()
        pairs = stps_join(
            diff_dataset, 0.05, 0.3, 0.2, algorithm=algorithm, telemetry=tele
        )
        return _scores_hex(pairs), tele.work_counters()

    assert _all_equal(_env_runs(monkeypatch, run))


@pytest.mark.parametrize("algorithm", _TOPK_ALGOS)
def test_topk_differential_env(diff_dataset, algorithm, monkeypatch):
    def run():
        tele = Telemetry()
        pairs = topk_stps_join(
            diff_dataset, 0.05, 0.3, 5, algorithm=algorithm, telemetry=tele
        )
        return _scores_hex(pairs), tele.work_counters()

    assert _all_equal(_env_runs(monkeypatch, run))


def test_knn_differential_env(diff_dataset, monkeypatch):
    probe = diff_dataset.users[0]
    runs = _env_runs(
        monkeypatch,
        lambda: [
            (u, s.hex())
            for u, s in similar_users(diff_dataset, probe, 0.05, 0.3, 4)
        ],
    )
    assert runs[None]
    assert _all_equal(runs)


def test_engine_backends_identical_under_numpy(diff_dataset):
    """The fused tier gives the sequential answer on every backend."""
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
# the served ``kernel`` field is no longer read


def test_serve_ignores_kernel_field(diff_dataset):
    from repro.serve.service import JoinService

    service = JoinService()
    service.register_dataset("d", diff_dataset)
    request = {
        "dataset": "d", "type": "join", "algorithm": "s-ppj-b",
        "eps_loc": 0.05, "eps_doc": 0.3, "eps_user": 0.2,
    }
    plain = service.query(request)
    # An unknown field: same cache entry, same payload, no echo.
    with_field = service.query(dict(request, kernel="python"))
    assert "kernel" not in plain
    assert with_field["pairs"] == plain["pairs"]
    assert with_field["cached"] is True
    assert "serve_kernel" not in service.metrics_text()
