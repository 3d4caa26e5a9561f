#!/usr/bin/env python
"""Gate benchmark artifacts against committed baselines.

Compares fresh ``BENCH_<name>.json`` files (written by the direct-run
benchmarks, see ``benchmarks/``) against the snapshots committed under
``benchmarks/baselines/`` and fails when a phase got slower by more than
the tolerance (default 20%).  Derived results can be gated with explicit
floors/ceilings, which is how CI pins e.g. parallel speedup and chunk
imbalance independently of wall-clock drift.

Usage::

    python scripts/check_bench_regression.py [BENCH_foo.json ...]
        [--baselines benchmarks/baselines] [--tolerance 0.2]
        [--min-result KEY=VALUE ...] [--max-result KEY=VALUE ...]
        [--update]

With no positional arguments, every ``BENCH_*.json`` at the repository
root is checked.  ``--min-result`` / ``--max-result`` accept either
``key=value`` (applied to every checked file) or ``name:key=value``
(scoped to one benchmark name).  ``--update`` refreshes the baselines
from the fresh files instead of checking — commit the result whenever a
deliberate performance change moves the numbers.

Phase comparisons are skipped (with a hard failure, not silently) when
the fresh file's workload config drifted from the baseline's: a timing
comparison across different workloads is noise, so the baseline must be
refreshed in the same change that alters the workload.  The ``cpus``
config key is exempt — the host sizing legitimately differs between a
laptop and CI.

Payloads also carry a ``host`` section (``cpu_count`` plus a load-average
note, written by :func:`repro.bench.reporting.host_info`).  When the
baseline and the fresh run were recorded on hosts with different
``cpu_count`` — or exactly one side carries host info — wall-clock phase
gates are downgraded to *advisory*: regressions are printed but do not
fail the check, because cross-host wall-clock is noise.  Legacy payloads
with no host info on either side keep the hard gate.  Work-counter
gates stay exact regardless; they are host-independent by construction.

Payloads carrying a ``counters`` section (deterministic work counters,
see ``docs/observability.md``) are gated *exactly*: any counter whose
value differs from the baseline — or appears on only one side — fails
the check even when every wall-clock phase is within tolerance.  The
counters are reproducible by construction (merge-on-accept registries,
fixed-seed workloads), so unlike timings they admit no tolerance; drift
means the algorithms did different work and the baseline must be
refreshed deliberately.  A baseline without a ``counters`` section
prints a note instead of failing, so older snapshots keep working until
refreshed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINES = REPO_ROOT / "benchmarks" / "baselines"

#: Config keys that may differ between a baseline and a fresh run
#: without invalidating the comparison: host sizing and run *scope*
#: (which worker counts were swept) vary legitimately between a laptop,
#: CI smoke runs and full runs; the workload keys (preset, users,
#: algorithm, thresholds) do not.
_CONFIG_EXEMPT = {"cpus", "worker_counts", "telemetry_rounds"}

#: Phases faster than this (seconds) in the *baseline* are not gated:
#: at sub-10ms scales, scheduler jitter swamps any real regression.
_MIN_GATED_SECONDS = 0.01


def _load(path: pathlib.Path) -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    for key in ("name", "phases", "config"):
        if key not in payload:
            raise ValueError(f"{path}: not a BENCH payload (missing {key!r})")
    return payload


def _parse_bound(spec: str) -> Tuple[Optional[str], str, float]:
    """``[name:]key=value`` -> (name or None, key, value)."""
    scope = None
    body = spec
    if ":" in spec.split("=", 1)[0]:
        scope, body = spec.split(":", 1)
    if "=" not in body:
        raise argparse.ArgumentTypeError(
            f"expected [name:]key=value, got {spec!r}"
        )
    key, raw = body.split("=", 1)
    try:
        return scope, key, float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bound value in {spec!r} is not a number"
        ) from None


def _config_drift(fresh: dict, baseline: dict) -> List[str]:
    drifted = []
    keys = set(fresh["config"]) | set(baseline["config"])
    for key in sorted(keys - _CONFIG_EXEMPT):
        if fresh["config"].get(key) != baseline["config"].get(key):
            drifted.append(
                f"{key}: baseline={baseline['config'].get(key)!r} "
                f"fresh={fresh['config'].get(key)!r}"
            )
    return drifted


def _host_cpus(payload: dict):
    """The recording host's cpu count (``host`` section, config fallback)."""
    cpus = (payload.get("host") or {}).get("cpu_count")
    if cpus is None:
        cpus = payload.get("config", {}).get("cpus")
    return cpus


def check_counters(fresh: dict, baseline: dict, failures: List[str]) -> None:
    """Exact-equality gate on the deterministic ``counters`` section.

    Work counters are byte-identical across backends and retries by
    construction, so *any* delta is a regression — no tolerance.  This
    catches work-level drift (a filter silently pruning less, a kernel
    evaluating more pairs) that a 20% wall-clock tolerance on a noisy
    CI host would wave through.
    """
    name = fresh["name"]
    base_counters = baseline.get("counters")
    if base_counters is None:
        if fresh.get("counters"):
            print(
                f"  {name}: baseline has no counters section — refresh with "
                f"--update to start gating on work counters"
            )
        return
    fresh_counters = fresh.get("counters")
    if fresh_counters is None:
        failures.append(
            f"{name}: baseline has work counters but the fresh run recorded "
            f"none — counter gating cannot be silently dropped"
        )
        return
    drifted = []
    for key in sorted(set(base_counters) | set(fresh_counters)):
        base_value = base_counters.get(key)
        fresh_value = fresh_counters.get(key)
        if base_value != fresh_value:
            drifted.append(f"{key}: baseline={base_value} fresh={fresh_value}")
    if drifted:
        failures.append(
            f"{name}: work counters drifted from the baseline — the "
            f"algorithms did different work ({'; '.join(drifted)}); refresh "
            f"with --update only if the change is deliberate"
        )
        print(f"  {name}.counters: DRIFT ({len(drifted)} counter(s) differ)")
    else:
        print(f"  {name}.counters: {len(base_counters)} counter(s) identical")


def check_file(
    fresh: dict,
    baseline: dict,
    tolerance: float,
    failures: List[str],
    allow_subset: bool = False,
) -> None:
    name = fresh["name"]
    drift = _config_drift(fresh, baseline)
    if drift:
        failures.append(
            f"{name}: workload config drifted from the baseline "
            f"({'; '.join(drift)}) — refresh with --update"
        )
        return
    check_counters(fresh, baseline, failures)
    base_cpus = _host_cpus(baseline)
    fresh_cpus = _host_cpus(fresh)
    # Advisory only when the hosts demonstrably (or plausibly) differ:
    # a mismatch, or host info on exactly one side.  Legacy payloads
    # with no host info on either side keep the hard gate — anything
    # else would silently disable wall-clock gating for every baseline
    # recorded before the host section existed.
    advisory = (
        (base_cpus is None) != (fresh_cpus is None)
        or (base_cpus is not None and base_cpus != fresh_cpus)
    )
    if advisory:
        base_note = (baseline.get("host") or {}).get("load_note")
        print(
            f"  {name}: baseline host cpu_count={base_cpus} "
            f"(load at record: {base_note or 'unknown'}) vs fresh "
            f"cpu_count={fresh_cpus} — wall-clock gates advisory"
        )
    for phase, base_seconds in sorted(baseline["phases"].items()):
        fresh_seconds = fresh["phases"].get(phase)
        if fresh_seconds is None:
            if allow_subset:
                print(f"  {name}.{phase}: not measured in this run (skipped)")
            else:
                failures.append(
                    f"{name}: phase {phase!r} present in the baseline but "
                    f"missing from the fresh run"
                )
            continue
        if base_seconds < _MIN_GATED_SECONDS:
            continue
        ratio = fresh_seconds / base_seconds
        status = "ok"
        if ratio > 1.0 + tolerance:
            if advisory:
                status = "SLOWER (advisory: cross-host)"
            else:
                status = "REGRESSION"
                failures.append(
                    f"{name}: phase {phase!r} regressed {ratio:.2f}x "
                    f"({base_seconds:.3f}s -> {fresh_seconds:.3f}s, "
                    f"tolerance {tolerance:.0%})"
                )
        print(
            f"  {name}.{phase}: {base_seconds:.3f}s -> {fresh_seconds:.3f}s "
            f"({ratio:.2f}x) {status}"
        )


def check_bounds(
    fresh: dict,
    bounds: List[Tuple[Optional[str], str, float]],
    minimum: bool,
    failures: List[str],
) -> None:
    name = fresh["name"]
    op = ">=" if minimum else "<="
    for scope, key, bound in bounds:
        if scope is not None and scope != name:
            continue
        value = fresh.get("results", {}).get(key)
        if value is None:
            failures.append(f"{name}: result {key!r} missing (need {op} {bound})")
            continue
        ok = value >= bound if minimum else value <= bound
        print(f"  {name}.results.{key} = {value:.3f} (need {op} {bound}): "
              f"{'ok' if ok else 'VIOLATION'}")
        if not ok:
            failures.append(
                f"{name}: result {key} = {value:.3f} violates {op} {bound}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="*",
        type=pathlib.Path,
        help="fresh BENCH_*.json files (default: repo root's)",
    )
    parser.add_argument(
        "--baselines",
        type=pathlib.Path,
        default=DEFAULT_BASELINES,
        help="baseline directory (default: %(default)s)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional slowdown per phase (default: %(default)s)",
    )
    parser.add_argument(
        "--min-result",
        action="append",
        default=[],
        type=_parse_bound,
        metavar="[NAME:]KEY=VALUE",
        help="require results[KEY] >= VALUE in the fresh payload",
    )
    parser.add_argument(
        "--max-result",
        action="append",
        default=[],
        type=_parse_bound,
        metavar="[NAME:]KEY=VALUE",
        help="require results[KEY] <= VALUE in the fresh payload",
    )
    parser.add_argument(
        "--subset",
        action="store_true",
        help="tolerate fresh runs measuring only a subset of the baseline's "
        "phases (CI smoke runs sweep fewer worker counts)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="refresh the baselines from the fresh files instead of checking",
    )
    args = parser.parse_args(argv)

    files = args.files or sorted(REPO_ROOT.glob("BENCH_*.json"))
    if not files:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 2

    if args.update:
        args.baselines.mkdir(parents=True, exist_ok=True)
        for path in files:
            target = args.baselines / path.name
            shutil.copyfile(path, target)
            print(f"baseline updated: {target}")
        return 0

    failures: List[str] = []
    for path in files:
        try:
            fresh = _load(path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2
        print(f"{path.name}:")
        baseline_path = args.baselines / path.name
        if baseline_path.exists():
            baseline = _load(baseline_path)
            check_file(fresh, baseline, args.tolerance, failures, args.subset)
        else:
            failures.append(
                f"{fresh['name']}: no committed baseline at {baseline_path} "
                f"(create one with --update)"
            )
        check_bounds(fresh, args.min_result, True, failures)
        check_bounds(fresh, args.max_result, False, failures)

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: no benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
