"""Timing, host-speed calibration and read-only host diagnostics.

All op timings are **process CPU time** (``time.process_time``), which
counts every thread of this process -- the client and the in-process
server -- and leaves out hypervisor steal.

Process CPU time still moves with the host.  On a shared 2-vCPU KVM
guest with steal near 0, a fixed pure-Python loop ran anywhere between
2.7 and 4.2 ms within two minutes, and the CPU time of a fixed cycle of
oneshot ops moved with it (coefficient of variation 20% per cycle, 8%
after dividing by the loop).  So a :class:`SpeedProbe` times that loop
every ``PERIOD_S`` seconds of each measured phase, and every op's CPU
time is rescaled, by the samples taken within ``WINDOW_S`` of it, to a
reference host on which the loop takes ``CALIB_REF_MS``::

    reported = cpu * CALIB_REF_MS / median(nearby loop samples)

The raw CPU figures and the probe median are printed beside the metrics
as diagnostics.  The probe's own CPU is subtracted from every phase
total it falls into.  The probe runs no code of the program under test,
so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import os
import resource
import statistics
import time
from typing import List, Optional, Sequence, Tuple

#: CPU milliseconds :func:`calibration_loop` takes on the reference host
#: (its median over benchmark runs on a 2-vCPU KVM guest, Python 3.11).
CALIB_REF_MS = 4.2

#: Seconds of wall clock between two probe samples inside a phase.
PERIOD_S = 0.1

#: An op is rescaled by the probe samples within this many wall seconds
#: of it, and by at least ``MIN_SAMPLES`` samples.
WINDOW_S = 1.0
MIN_SAMPLES = 5

cpu = time.process_time
wall = time.perf_counter


def calibration_loop() -> int:
    """A fixed pure-Python workload: integer arithmetic, dict stores, a sort."""
    acc = 0
    table = {}
    for i in range(12000):
        acc = (acc * 1103515245 + i) & 0x7FFFFFFF
        table[acc & 511] = i
    return acc + sum(sorted(table.values())[:8])


class SpeedProbe:
    """Samples the reference work's CPU time at a fixed wall-clock period.

    An op is rescaled by the samples taken within ``WINDOW_S`` of it (at
    least ``MIN_SAMPLES`` of them), since the host's speed also moves
    within a run.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.loop_ms: List[float] = []
        self.spent = 0.0  # CPU seconds the probe itself used
        self._last = float("-inf")

    def sample(self) -> None:
        started = cpu()
        calibration_loop()
        elapsed = cpu() - started
        self.loop_ms.append(elapsed * 1e3)
        self.spent += elapsed
        self._last = wall()
        self.times.append(self._last)

    def tick(self) -> None:
        """Sample when ``PERIOD_S`` has passed since the last sample."""
        if wall() - self._last >= PERIOD_S:
            self.sample()

    def _near(self, at: Optional[float]) -> slice:
        """The samples within ``WINDOW_S`` of ``at`` (all when ``None``)."""
        if at is None:
            return slice(0, len(self.times))
        lo = bisect.bisect_left(self.times, at - WINDOW_S)
        hi = bisect.bisect_right(self.times, at + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, len(self.times)):
            if lo > 0 and (hi == len(self.times)
                           or at - self.times[lo - 1] < self.times[hi] - at):
                lo -= 1
            else:
                hi += 1
        return slice(lo, hi)

    def loop_median_ms(self, at: Optional[float] = None) -> float:
        return statistics.median(self.loop_ms[self._near(at)])

    def factor(self, at: Optional[float] = None) -> float:
        """Multiplier from measured to reference-host compute CPU."""
        return CALIB_REF_MS / self.loop_median_ms(at)

    def normalize_ms(self, cpu_s: float, at: Optional[float] = None) -> float:
        """CPU seconds spent around wall time ``at`` (the whole phase when
        ``None``) as reference-host milliseconds."""
        return cpu_s * 1e3 * self.factor(at)


def tail(values: Sequence[float], beyond: int = 10) -> Tuple[float, float]:
    """``(level %, value)``: the highest percentile with ``beyond`` ops above it.

    With ``n`` values that is the ``(beyond + 1)``-th largest, at level
    ``100 * (n - beyond) / n``; too few values give the maximum at 100%.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return 100.0, ordered[-1]
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process (all threads), in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steal_ticks() -> Optional[Tuple[int, int]]:
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat``, if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    values = [int(v) for v in fields[1:]]
    return values[7], sum(values[:8])


def steal_share(
    before: Optional[Tuple[int, int]], after: Optional[Tuple[int, int]]
) -> Optional[float]:
    """Share of all CPU time stolen by the hypervisor between two readings."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def calib_ms(rounds: int = 9) -> float:
    """Median CPU ms of the calibration loop over ``rounds`` back-to-back runs."""
    samples = []
    for _ in range(rounds):
        started = cpu()
        calibration_loop()
        samples.append((cpu() - started) * 1e3)
    return statistics.median(samples)


def host_info() -> dict:
    import platform

    import numpy

    from repro.core.kernels import resolve_kernel

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": resolve_kernel(),
        "parallel_scaling": "unmeasured (sequential engine backend only)",
    }
