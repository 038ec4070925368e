"""Ablation benchmarks: the individual Gumbo optimisations of Section 5.1.

Not a figure of the paper: the benchmark toggles each design choice — message
packing, tuple references, intermediate-size-based reducer allocation and the
cost model driving GREEDY — on the sharing-heavy queries A2 and A3 and
verifies the expected direction of the effect.
"""

from repro.experiments import run_ablation

from common import bench_environment


def test_bench_ablation(benchmark, capsys):
    result = benchmark.pedantic(
        run_ablation, kwargs={
            "environment": bench_environment()
        }, rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(result.format())

    for query_id in ("A2", "A3"):
        all_on = result.record(query_id, "GREEDY[ALL-ON]")
        no_packing = result.record(query_id, "GREEDY[NO-PACKING]")
        no_reference = result.record(query_id, "GREEDY[NO-TUPLE-REF]")
        all_off = result.record(query_id, "GREEDY[ALL-OFF]")

        # Packing and tuple references both reduce communication.
        assert all_on.communication_gb < no_packing.communication_gb
        assert all_on.communication_gb <= no_reference.communication_gb
        # With every optimisation disabled, both communication and total time
        # are at least as high as with everything enabled.
        assert all_off.communication_gb >= all_on.communication_gb
        assert all_off.total_time >= all_on.total_time - 1e-6
