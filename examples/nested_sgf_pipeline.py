"""Nested SGF queries: dependency graphs, multiway topological sorts and Greedy-SGF.

This example uses the C4-style query set of the paper's SGF experiment
(Section 5.3): four first-level subqueries over two guard relations feeding a
second-level subquery.  It

* prints the dependency graph and its dependency levels,
* shows the multiway topological sort chosen by ``Greedy-SGF`` and compares
  its estimated cost against the SEQUNIT and PARUNIT orderings,
* executes all three SGF strategies and reports their measured metrics,
* re-plans the query stage by stage (``Gumbo.execute_dynamic``),
* verifies the answers against the reference evaluator.

Run with::

    python examples/nested_sgf_pipeline.py
"""

from repro import Gumbo, evaluate_sgf
from repro.core import (
    greedy_multiway_sort,
    parunit_sort,
    register_intermediate_estimates,
    sequnit_sort,
    sgf_group_cost,
    sort_cost,
)
from repro.query import DependencyGraph
from repro.workloads.queries import database_for, sgf_query
from repro.workloads.scaling import ScaledEnvironment


def main() -> None:
    environment = ScaledEnvironment(scale=2e-6)
    query = sgf_query("C4")
    database = database_for(
        query,
        guard_tuples=environment.workload.guard_tuples,
        selectivity=0.5,
        seed=11,
    )

    graph = DependencyGraph(query)
    print("Subqueries and their dependencies:")
    for name in graph.nodes:
        parents = ", ".join(sorted(graph.parents[name])) or "(none)"
        print(f"    {name:<4} depends on {parents}")
    print()
    print("Dependency levels (PARUNIT evaluates level by level):")
    for index, level in enumerate(graph.levels()):
        print(f"    level {index}: {', '.join(level)}")
    print()

    gumbo = Gumbo(engine=environment.engine())
    estimator = gumbo.estimator(database)
    register_intermediate_estimates(query, estimator.catalog)

    def cost_of(groups) -> float:
        return sort_cost(graph, groups, lambda qs: sgf_group_cost(qs, estimator))

    orderings = {
        "SEQUNIT": sequnit_sort(graph),
        "PARUNIT": parunit_sort(graph),
        "Greedy-SGF": greedy_multiway_sort(graph),
    }
    print("Multiway topological sorts and their estimated costs (Equation (10)):")
    for name, groups in orderings.items():
        rendering = " ; ".join("{" + ", ".join(group) + "}" for group in groups)
        print(f"    {name:<11} cost={cost_of(groups):9.1f}s   {rendering}")
    print()

    # A BSGF name asked of a nested query plans its SGF counterpart.
    planned = gumbo.plan_with(query, database, "greedy")
    print(f"'greedy' on this nested query plans as {planned.strategy!r}")
    print()

    reference = evaluate_sgf(query, database)
    print("Measured execution of the SGF strategies:")
    for strategy in ("sequnit", "parunit", "greedy-sgf"):
        result = gumbo.execute(query, database, strategy)
        summary = result.summary()
        assert set(result.output().tuples()) == set(reference[query.output].tuples())
        print(
            f"    {strategy.upper():<11} rounds={result.metrics.rounds:<3} "
            f"net={summary['net_time_s']:8.1f}s total={summary['total_time_s']:9.1f}s "
            f"input={summary['input_gb']:6.2f}GB comm={summary['communication_gb']:6.2f}GB"
        )
    dynamic = gumbo.execute_dynamic(query, database)
    assert set(dynamic.output().tuples()) == set(reference[query.output].tuples())
    print(
        f"    {'DYNAMIC':<11} stages={len(dynamic.stages):<3} "
        f"net={dynamic.metrics.net_time:8.1f}s total={dynamic.metrics.total_time:9.1f}s"
    )
    print()
    print(f"Answer size ({query.output}): {len(reference[query.output])} tuples "
          "(all strategies agree with the reference evaluator)")


if __name__ == "__main__":
    main()
