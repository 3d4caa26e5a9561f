"""Metamorphic properties of top-k, from Definition 2.

For every top-k algorithm, on the sequential and thread backends:

* ``topk(k)`` is a prefix of ``topk(k+1)``, and both equal the oracle;
* ``topk(k)`` is the first k pairs of the threshold join run with
  ``eps_user`` set to the k-th best score.
"""

from __future__ import annotations

import pytest

from repro import TOPK_ALGORITHMS, stps_join, topk_stps_join
from tests.helpers import DifferentialConfig, build_differential_dataset

EPS_LOC, EPS_DOC = 0.08, 0.2

#: Shapes with at least seven positive pairs at these thresholds.
CONFIGS = [
    DifferentialConfig(seed=32, n_users=14, cluster_fraction=0.7, token_skew=0.5),
    DifferentialConfig(seed=8, n_users=10, cluster_fraction=0.9, spread=0.01),
    DifferentialConfig(
        seed=11, n_users=10, cluster_fraction=0.8, token_skew=1.0, spread=0.02
    ),
]

BACKENDS = {
    "sequential": {},
    "thread": {"workers": 2, "backend": "thread"},
}


@pytest.fixture(scope="module", params=CONFIGS, ids=lambda c: f"seed{c.seed}")
def dataset(request):
    return build_differential_dataset(request.param)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("algorithm", sorted(TOPK_ALGORITHMS))
def test_topk_prefix_and_threshold_cut(dataset, algorithm, backend):
    engine = BACKENDS[backend]
    checked = 0
    for k in (1, 3, 6):
        got = topk_stps_join(
            dataset, EPS_LOC, EPS_DOC, k, algorithm=algorithm, **engine
        )
        bigger = topk_stps_join(
            dataset, EPS_LOC, EPS_DOC, k + 1, algorithm=algorithm, **engine
        )
        assert got == topk_stps_join(
            dataset, EPS_LOC, EPS_DOC, k, algorithm="naive"
        )
        assert bigger == topk_stps_join(
            dataset, EPS_LOC, EPS_DOC, k + 1, algorithm="naive"
        )
        assert bigger[: len(got)] == got
        if len(got) < k:
            continue  # fewer than k positive pairs: no k-th score to cut at
        cut = stps_join(dataset, EPS_LOC, EPS_DOC, got[-1].score, **engine)
        assert cut[:k] == got
        checked += 1
    assert checked  # the threshold cut was exercised
