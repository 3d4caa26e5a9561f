"""Ablation — PPJ-B vs PPJ-C as the refinement step of S-PPJ-F.

S-PPJ-F refines filter survivors with PPJ-B (snake traversal + Lemma 1
early termination).  Swapping in the plain PPJ-C evaluator keeps results
identical and shows what the early-termination machinery contributes
inside the filter-and-refine scheme (DESIGN.md ablation #2).
"""

import pytest

from repro import stps_join

from _common import BENCH_USERS, PRESET_NAMES, dataset_for, thresholds_for


@pytest.mark.parametrize("preset", PRESET_NAMES)
@pytest.mark.parametrize("refine", ("ppj-b", "ppj-c"))
def test_refinement_strategy(run_once, preset, refine):
    dataset = dataset_for(preset, BENCH_USERS)
    result = run_once(
        stps_join, dataset, *thresholds_for(preset), algorithm="s-ppj-f",
        refine=refine,
    )
    assert isinstance(result, list)


def test_refinements_agree():
    for preset in PRESET_NAMES:
        dataset = dataset_for(preset, BENCH_USERS)
        eps = thresholds_for(preset)
        with_b = {p.key for p in stps_join(dataset, *eps, refine="ppj-b")}
        with_c = {p.key for p in stps_join(dataset, *eps, refine="ppj-c")}
        assert with_b == with_c
