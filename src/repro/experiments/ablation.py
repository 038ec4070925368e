"""Ablation experiments for the individual Gumbo optimisations.

These are not figures of the paper but isolate the contribution of the
individual Gumbo optimisations of Section 5.1:

* message packing (optimisation 1) — expected to reduce communication,
  especially for queries whose conditional atoms share join keys (A2, A3);
* tuple references (optimisation 2) — expected to reduce communication and
  the size of the materialised intermediates;
* intermediate-size-based reducer allocation (optimisation 3) — expected to
  reduce net time by avoiding under-provisioned reduce phases;
* the cost model driving GREEDY (Equation (2) vs (3)) — see also experiment
  E3 for the dedicated stress query.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.options import GumboOptions
from ..workloads.queries import bsgf_query_set, database_for
from ..workloads.scaling import ScaledEnvironment
from .results import ExperimentResult
from .runner import ExperimentRunner

ABLATION_QUERIES = ("A2", "A3")


def _run_variant(
    result: ExperimentResult,
    environment: ScaledEnvironment,
    query_id: str,
    label: str,
    options: GumboOptions,
    database,
    queries,
    strategy: str = "greedy",
    cost_model: str = "gumbo",
) -> None:
    runner = ExperimentRunner(environment, options=options, cost_model=cost_model)
    record = runner.run_gumbo(query_id, queries, strategy, database)
    record.strategy = label
    result.add(record)


def run_ablation(
    environment: Optional[ScaledEnvironment] = None,
    query_ids: Sequence[str] = ABLATION_QUERIES,
    selectivity: float = 0.5,
    seed: int = 13,
) -> ExperimentResult:
    """Run all optimisation ablations on the sharing-heavy queries A2 and A3."""
    environment = environment or ScaledEnvironment()
    result = ExperimentResult(
        name="Ablation",
        description="Gumbo optimisations toggled individually (GREEDY strategy)",
        baseline_strategy="greedy[all-on]",
    )
    for query_id in query_ids:
        queries = bsgf_query_set(query_id)
        database = database_for(
            queries,
            guard_tuples=environment.workload.guard_tuples,
            conditional_tuples=environment.workload.conditional_tuples,
            selectivity=selectivity,
            seed=seed,
        )
        variants = [
            ("GREEDY[ALL-ON]", GumboOptions()),
            ("GREEDY[NO-PACKING]", GumboOptions().without(message_packing=False)),
            ("GREEDY[NO-TUPLE-REF]", GumboOptions().without(tuple_reference=False)),
            (
                "GREEDY[INPUT-REDUCERS]",
                GumboOptions().without(reducers_by_intermediate=False),
            ),
            ("GREEDY[ALL-OFF]", GumboOptions.all_disabled()),
        ]
        for label, options in variants:
            _run_variant(
                result, environment, query_id, label, options, database, queries
            )
        # Cost-model choice ablation (plan structure may differ).
        _run_variant(
            result,
            environment,
            query_id,
            "GREEDY[WANG-COST]",
            GumboOptions(),
            database,
            queries,
            cost_model="wang",
        )
    return result
