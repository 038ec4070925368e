"""Benchmark — differential-fuzzer throughput (generated programs per second).

The fuzzer is only useful if a meaningful campaign fits in a CI budget, so
this benchmark tracks how many random (program, database) cases per second
the full differential check sustains: generation, the reference evaluation,
and every applicable strategy on the serial backend (the parallel backend is
excluded here because worker startup would measure the host, not the fuzzer).
The measured rate is recorded in the benchmark's ``extra_info`` so the perf
trajectory keeps fuzzer overhead visible next to the paper benchmarks.
"""

from __future__ import annotations

import os

from repro.fuzz import FuzzOptions, run_fuzz

#: Campaign length; small enough for CI, big enough to amortise setup.
FUZZ_BENCH_ITERATIONS = int(os.environ.get("REPRO_BENCH_FUZZ_ITERATIONS", 15))


def test_bench_fuzz_throughput(benchmark, capsys):
    options = FuzzOptions(
        seed=7,
        iterations=FUZZ_BENCH_ITERATIONS,
        backends=("serial",),
        stop_on_failure=False,
    )
    report = benchmark.pedantic(run_fuzz, args=(options,), rounds=1, iterations=1)

    with capsys.disabled():
        print()
        print(report.format())

    assert report.ok, report.counterexamples[0].describe()
    assert report.cases_run == FUZZ_BENCH_ITERATIONS
    benchmark.extra_info["programs_per_second"] = round(report.programs_per_second, 2)
    benchmark.extra_info["combinations_checked"] = report.combinations_checked
