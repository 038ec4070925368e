"""Benchmark E3 — Section 5.2 "Cost Model": Gumbo's Equation (2) vs Wang's Equation (3).

Regenerates the cost-model comparison: the GREEDY plans each model chooses on
the stress query (whose inputs have wildly different map input/output
ratios), the accuracy with which each model predicts the cost of the grouped
stress job, and the pairwise ranking accuracy over candidate MSJ jobs of the
A-queries (the paper reports 72.28 % for cost_gumbo vs 69.37 % for cost_wang —
i.e. the two models behave similarly when inputs contribute proportionally).
"""

from repro.experiments import run_cost_model_experiment

from common import bench_environment


def test_bench_cost_model(benchmark, capsys):
    result = benchmark.pedantic(
        run_cost_model_experiment,
        kwargs={"environment": bench_environment()},
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(result.format())

    # The per-partition model estimates the asymmetric stress job at least as
    # accurately as the aggregate model (which averages the fan-out away).
    errors = result.estimation_error
    assert abs(errors["gumbo"]) <= abs(errors["wang"]) + 1e-9

    # Both models rank proportional-input jobs similarly well (paper: ~72 % vs ~69 %).
    accuracy = result.ranking_accuracy
    assert accuracy["gumbo"] >= accuracy["wang"] - 0.05
    assert accuracy["gumbo"] > 0.6

    # Whatever plans the two models induce, the gumbo-driven plan is never worse.
    reductions = result.reductions()
    assert set(reductions) == {"total_time_reduction_pct", "net_time_reduction_pct"}
    assert reductions["total_time_reduction_pct"] >= -1.0
    assert reductions["net_time_reduction_pct"] >= -1.0
