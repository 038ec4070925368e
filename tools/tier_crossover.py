#!/usr/bin/env python
"""Where (if anywhere) the process tier crosses over the serial engine.

Times warm ``run_program`` on the serial engine and on ``parallel(2)`` (the
one multi-process backend; ``sharded(2)`` is the same class) for the
benchmark's five batch shapes (A1, A3, B2, C3, C4, planned once with
``auto``) at several guard sizes, and prints a markdown table: per shape and
size the median and minimum of each backend, then per size the *cycle* (the
five shapes back to back, as the ``batch-*`` workloads of ``benchmarks/e2e``
run them) with the tier's ratio to serial.  A ratio under 1.0 is a
crossover; ROADMAP item 2's verdict rule reads this table (committed in
``docs/backends.md``).

Every backend is warmed by one untimed run per program (workers spawned,
chunks resident, kernels compiled), and every timed result must carry the serial
run's simulated metrics or the script exits 1.  Times are raw wall clock on
the machine at hand — compare columns, not runs on different machines.

Usage::

    PYTHONPATH=src python tools/tier_crossover.py [--sizes 1000,8000,64000]
                                                  [--repeats 7] [--seed 5]
"""

from __future__ import annotations

import argparse
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Tuple

from repro.core.gumbo import Gumbo
from repro.exec.base import make_backend
from repro.workloads.queries import database_for, workload_query

SHAPES = ("A1", "A3", "B2", "C3", "C4")
TIERS = ("serial", "parallel")
WIDTH = 2


def _time_runs(backend, program, database, repeats: int) -> Tuple[List[float], dict]:
    """Milliseconds of *repeats* warm runs, and the last run's metric summary."""
    backend.run_program(program, database)
    times = []
    for _ in range(repeats):
        start = perf_counter()
        result = backend.run_program(program, database)
        times.append((perf_counter() - start) * 1e3)
    return times, result.metrics.summary()


def measure(size: int, repeats: int, seed: int) -> Dict[str, Dict[str, List[float]]]:
    """``{shape: {tier: [ms, ...]}}`` at *size* guard rows."""
    planner = Gumbo()
    backends = {name: make_backend(name, workers=WIDTH) for name in TIERS}
    timings: Dict[str, Dict[str, List[float]]] = {}
    try:
        for shape in SHAPES:
            query = workload_query(shape)
            database = database_for(
                query, guard_tuples=size, selectivity=0.5, seed=seed
            )
            program = planner.plan_with(query, database, "auto").program
            timings[shape] = {}
            reference = None
            for name, backend in backends.items():
                times, summary = _time_runs(backend, program, database, repeats)
                timings[shape][name] = times
                if reference is None:
                    reference = summary
                elif summary != reference:
                    raise SystemExit(
                        f"{name} diverged from serial on {shape} at {size} rows"
                    )
    finally:
        for backend in backends.values():
            backend.close()
    return timings


def _cell(times: List[float]) -> str:
    return f"{statistics.median(times):.1f} / {min(times):.1f}"


def report(sizes: List[int], repeats: int, seed: int) -> None:
    print(
        "| guard rows | shape | serial ms (median / min) | "
        f"parallel({WIDTH}) ms | parallel ÷ serial |"
    )
    print("|---:|---|---:|---:|---:|")
    for size in sizes:
        timings = measure(size, repeats, seed)
        cycle = dict.fromkeys(TIERS, 0.0)
        for shape, by_tier in timings.items():
            medians = {name: statistics.median(by_tier[name]) for name in TIERS}
            for name in TIERS:
                cycle[name] += medians[name]
            print(
                f"| {size} | {shape} | {_cell(by_tier['serial'])} | "
                f"{_cell(by_tier['parallel'])} | "
                f"{medians['parallel'] / medians['serial']:.2f} |"
            )
        print(
            f"| {size} | **cycle** | {cycle['serial']:.1f} | "
            f"{cycle['parallel']:.1f} | "
            f"**{cycle['parallel'] / cycle['serial']:.2f}** |"
        )
        sys.stdout.flush()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="1000,8000,64000",
                        help="comma-separated guard sizes (rows)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed runs per shape, size and backend")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    sizes = [int(size) for size in args.sizes.split(",") if size]
    report(sizes, args.repeats, args.seed)


if __name__ == "__main__":
    main()
