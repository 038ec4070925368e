"""Shared configuration for the benchmark harness.

Every benchmark reproduces one table or figure of the paper's evaluation
(the drivers live in ``repro.experiments``).  The workload scale can be adjusted
through the ``REPRO_BENCH_SCALE`` environment variable; the default of
``5e-6`` (500-tuple guard relations standing in for the paper's 100M-tuple
relations) keeps the full suite in the minutes range while the scaled cost
environment preserves the paper-scale simulated times.
"""

from __future__ import annotations

import os

from repro.workloads.scaling import ScaledEnvironment

#: Default workload scale of the benchmark suite.
DEFAULT_BENCH_SCALE = 5e-6

#: Smaller scale used by the sweep-style benchmarks (Figures 7 and 8), which
#: run an order of magnitude more strategy executions.
SWEEP_BENCH_SCALE = 2e-6


def bench_scale(default: float = DEFAULT_BENCH_SCALE) -> float:
    """The workload scale, overridable via ``REPRO_BENCH_SCALE``."""
    return float(os.environ.get("REPRO_BENCH_SCALE", default))


def bench_environment(
    default_scale: float = DEFAULT_BENCH_SCALE, nodes: int = 10
) -> ScaledEnvironment:
    """The scaled environment used by a benchmark."""
    return ScaledEnvironment(scale=bench_scale(default_scale), nodes=nodes)

