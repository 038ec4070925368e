"""Machine-speed calibration: report every time at one reference speed.

On a small shared box the CPU itself runs 1.0–1.6x slower for seconds to
minutes at a time (a bare interpreter loop shows it on an idle machine), so
same-code runs of any workload spread by 25–45 % over an hour while the
medians of two interleaved sets still agree within a few percent.  No
statistic taken inside one 12 s window removes a slow-down that outlasts the
window; measuring the machine alongside the workload does.

:func:`kernel` is a fixed piece of interpreter-bound work (dict updates over
ints; no garbage-collector-tracked allocation).  A :class:`SpeedMeter` runs
it between the workload's cycles — outside every timed section, about a
tenth of the measured time — and ``factor()`` is the kernel's mean duration
(the mean, so stalls count as they do in a throughput) over its frozen
reference duration: 1.0 on the reference box when it is calm, 1.5 when the
machine is running 1.5x slow.  The passes divide
every time they report by the factor of the segment (or run) it was taken
in, and multiply every rate by it.  The factor itself is reported by the
traced pass as ``harness.machine_speed_factor`` and printed by every run.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

#: The kernel's typical duration on the reference 2-core box when calm.
#: Frozen: changing it rescales every reported time.
REFERENCE_S = 0.0060

#: Calibration time as a share of the time measured so far.
SHARE = 0.1


def kernel(iterations: int = 50_000) -> float:
    """Run the fixed calibration work once; returns its duration in seconds."""
    start = perf_counter()
    counts: dict = {}
    get = counts.get
    for i in range(iterations):
        key = (i * 7919) & 4095
        counts[key] = get(key, 0) + i
    return perf_counter() - start


class SpeedMeter:
    """Calibration samples taken alongside one pass."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._spent = 0.0

    def keep_up(self, measured_s: float) -> None:
        """Sample once, then until calibration is SHARE of *measured_s*."""
        while True:
            duration = kernel()
            self.samples.append(duration)
            self._spent += duration
            if self._spent >= SHARE * measured_s:
                break

    def factor(self, since: int = 0) -> float:
        """Mean kernel duration of ``samples[since:]`` over the reference."""
        return statistics.fmean(self.samples[since:]) / REFERENCE_S
