"""Benchmark — the parallel backend's real wall-clock speedup.

Unlike the paper-reproduction benchmarks (which check *simulated* Hadoop
metrics), this benchmark measures *actual* elapsed time: the same generated
workload is executed on the multiprocessing backend with a single worker and
with ``PARALLEL_WORKERS`` workers, and the wall-clock speedup is reported.
Output relations and simulated metrics must be bit-identical across all runs
— the backends only differ in where the map/reduce functions execute.

The parallel runs pin ``kernel_mode="off"``: what is measured is how the
interpreted per-tuple fan-out — map tasks, driver shuffle, reduce tasks —
scales with the pool size.  Under the default mode the workers run the batch
kernels instead, the map phase shrinks to a few relation-sized tasks, and a
pool-size race would measure their skew rather than the scheduler.

The speedup assertion is gated on the host's CPU count: real parallel
speedup is physically impossible on a single core, so there the benchmark
only records the measurement (and checks parity).  The workload size can be
scaled through ``REPRO_BENCH_PARALLEL_TUPLES`` to keep pool-startup overhead
amortised on slower machines.
"""

from __future__ import annotations

import os

from repro.core.gumbo import Gumbo
from repro.core.options import GumboOptions
from repro.exec import ParallelBackend, SimulatedBackend
from repro.workloads.queries import bsgf_query_set, database_for
from repro.workloads.scaling import ScaledEnvironment

#: Worker count of the "many workers" configuration (the acceptance setup).
PARALLEL_WORKERS = 4

#: Guard-relation cardinality; large enough that map work dominates the pool
#: startup and IPC overheads on a typical multi-core machine.
DEFAULT_TUPLES = int(os.environ.get("REPRO_BENCH_PARALLEL_TUPLES", 8_000))


def _execute_on(backend, queries, database, warmup_database):
    """Warm the backend's pool on a tiny run, then execute the real workload."""
    gumbo = Gumbo(backend=backend, options=GumboOptions(kernel_mode="off"))
    gumbo.execute(queries, warmup_database, "par")
    return gumbo.execute(queries, database, "par")


def test_bench_parallel_backend_speedup(capsys):
    queries = bsgf_query_set("A1")
    database = database_for(
        queries, guard_tuples=DEFAULT_TUPLES, selectivity=0.5, seed=5
    )
    warmup = database_for(queries, guard_tuples=50, selectivity=0.5, seed=5)
    environment = ScaledEnvironment(scale=1.0, nodes=10)

    serial = Gumbo(backend=SimulatedBackend(environment.engine())).execute(
        queries, database, "par"
    )
    runs = {}
    for workers in (1, PARALLEL_WORKERS):
        backend = ParallelBackend(environment.engine(), workers=workers)
        try:
            runs[workers] = _execute_on(backend, queries, database, warmup)
        finally:
            backend.close()

    single, many = runs[1], runs[PARALLEL_WORKERS]
    speedup = (
        single.metrics.wall_elapsed_s / many.metrics.wall_elapsed_s
        if many.metrics.wall_elapsed_s > 0
        else float("inf")
    )

    with capsys.disabled():
        print()
        print(
            f"A1 ({DEFAULT_TUPLES} guard tuples), strategy par, "
            f"{os.cpu_count()} CPUs"
        )
        header = f"{'backend':<14} {'total_s':>10} {'net_s':>10} {'wall_s':>10}"
        print(header)
        print("-" * len(header))
        for label, result in (
            ("serial", serial),
            ("parallel[1]", single),
            (f"parallel[{PARALLEL_WORKERS}]", many),
        ):
            metrics = result.metrics
            print(
                f"{label:<14} {metrics.total_time:>10.1f} "
                f"{metrics.net_time:>10.1f} {metrics.wall_elapsed_s:>10.3f}"
            )
        print(
            f"wall-clock speedup parallel[{PARALLEL_WORKERS}] "
            f"vs parallel[1]: {speedup:.2f}x"
        )

    # Byte-identical results on every backend and worker count.
    for result in (single, many):
        assert result.summary() == serial.summary()
        assert set(result.all_outputs) == set(serial.all_outputs)
        for name, relation in serial.all_outputs.items():
            assert result.all_outputs[name].tuples() == relation.tuples(), name

    # Real wall-clock times were measured everywhere.
    assert serial.metrics.wall_elapsed_s > 0
    assert single.metrics.wall_elapsed_s > 0
    assert many.metrics.wall_elapsed_s > 0

    # Speedup expectations scale with the hardware actually available AND the
    # workload size: below the default tuple count the serial parent-side
    # shuffle merge dominates (Amdahl), so a shrunken workload — as CI uses to
    # stay within shared-runner budgets — only records the measurement.
    # REPRO_BENCH_ASSERT_SPEEDUP=1/0 forces the strict assertion on or off.
    cpus = os.cpu_count() or 1
    forced = os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP")
    strict = (
        forced == "1"
        if forced in ("0", "1")
        else cpus >= 4 and DEFAULT_TUPLES >= 8_000
    )
    if strict:
        assert speedup >= 1.5, (
            f"expected >= 1.5x speedup on {cpus} CPUs, got {speedup:.2f}x"
        )
    # On a single core (or a deliberately small workload) there is nothing to
    # parallelise over; the measurement is still recorded above so the
    # speedup curve has its baseline point.
