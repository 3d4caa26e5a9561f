"""Backend and start-method resolution, including the loud-fallback fix.

Historically the process-parallel join silently fell back to sequential
evaluation when the ``fork`` start method was unavailable — correct
results, but a silent 1-core surprise.  The engine's contract, pinned
here with monkeypatched ``multiprocessing.get_all_start_methods``:

* an explicitly requested start method (parameter or the
  ``REPRO_START_METHOD`` environment variable) that is unavailable
  raises :class:`BackendUnavailableError`;
* automatic resolution without ``fork`` emits a :class:`RuntimeWarning`
  and uses the ``spawn`` transport — still parallel, still identical
  results.
"""

from __future__ import annotations

import multiprocessing
import warnings

import pytest

import repro
from repro import stps_join
from repro.exec import BACKENDS, BackendUnavailableError, JoinExecutor
from tests.helpers import build_clustered_dataset

fork_available = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    # Resolution tests must not inherit the CI spawn switch.
    monkeypatch.delenv("REPRO_START_METHOD", raising=False)


def _patch_methods(monkeypatch, methods):
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: list(methods)
    )


class TestStartMethodResolution:
    def test_explicit_fork_unavailable_raises(self, monkeypatch):
        _patch_methods(monkeypatch, ["spawn"])
        with pytest.raises(BackendUnavailableError, match="fork"):
            JoinExecutor(workers=2, backend="process", start_method="fork")

    def test_env_override_unavailable_raises(self, monkeypatch):
        _patch_methods(monkeypatch, ["spawn"])
        monkeypatch.setenv("REPRO_START_METHOD", "fork")
        with pytest.raises(BackendUnavailableError, match="REPRO_START_METHOD"):
            JoinExecutor(workers=2, backend="process")

    def test_auto_without_fork_warns_and_uses_spawn(self, monkeypatch):
        _patch_methods(monkeypatch, ["spawn"])
        with pytest.warns(RuntimeWarning, match="fork start method is unavailable"):
            executor = JoinExecutor(workers=2, backend="process")
        assert executor.start_method == "spawn"

    def test_no_start_method_at_all_raises(self, monkeypatch):
        _patch_methods(monkeypatch, [])
        with pytest.raises(BackendUnavailableError, match="no multiprocessing"):
            JoinExecutor(workers=2, backend="process")

    @pytest.mark.skipif(not fork_available, reason="fork start method unavailable")
    def test_auto_prefers_fork(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning on the happy path
            executor = JoinExecutor(workers=2, backend="process")
        assert executor.start_method == "fork"

    def test_env_override_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        executor = JoinExecutor(workers=2, backend="process")
        assert executor.start_method == "spawn"

    def test_explicit_parameter_beats_env(self, monkeypatch):
        if not fork_available:
            pytest.skip("fork start method unavailable")
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        executor = JoinExecutor(
            workers=2, backend="process", start_method="fork"
        )
        assert executor.start_method == "fork"

    def test_non_process_backends_skip_resolution(self, monkeypatch):
        _patch_methods(monkeypatch, [])
        assert JoinExecutor(workers=2, backend="thread").start_method is None
        assert JoinExecutor(workers=2, backend="sequential").start_method is None


class TestParallelStpsJoinFallback:
    """The bugfix: no silent sequential fallback when fork is missing."""

    def test_fallback_is_loud_and_still_correct(self, monkeypatch):
        _patch_methods(monkeypatch, ["spawn"])
        ds = build_clustered_dataset(2, n_users=8)
        expected = stps_join(ds, 0.05, 0.3, 0.2, algorithm="s-ppj-b")
        with pytest.warns(RuntimeWarning, match="falling back to spawn"):
            got = stps_join(ds, 0.05, 0.3, 0.2, algorithm="s-ppj-b", workers=2)
        assert got == expected

    def test_explicit_start_method_never_falls_back(self, monkeypatch):
        _patch_methods(monkeypatch, ["spawn"])
        ds = build_clustered_dataset(2, n_users=4)
        with pytest.raises(BackendUnavailableError):
            stps_join(ds, 0.05, 0.3, 0.2, workers=2, start_method="fork")


class TestValidation:
    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            JoinExecutor(backend="gpu")

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            JoinExecutor(workers=0)

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            JoinExecutor(chunk_size=0)

    def test_backends_constant(self):
        assert BACKENDS == ("sequential", "thread", "process")

    def test_exported_from_repro(self):
        assert repro.JoinExecutor is JoinExecutor
        assert repro.BackendUnavailableError is BackendUnavailableError
