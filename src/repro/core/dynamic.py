"""Dynamic (re-planning) evaluation of SGF queries.

Section 4.6 of the paper notes that "a naive dynamic evaluation strategy may
consist of re-running Greedy-SGF after each BSGF evaluation in order to obtain
an updated MR query plan".  The static strategies plan once, using upper-bound
estimates for the sizes of intermediate relations; the dynamic executor
implemented here instead

1. runs ``Greedy-SGF`` over the not-yet-evaluated subqueries,
2. executes only the *first* group of the resulting multiway topological sort
   (with ``Greedy-BSGF`` grouping, i.e. ``GOPT``),
3. adds the materialised outputs to the working database, refreshes the
   statistics catalog (so later planning decisions see the intermediates'
   *actual* sizes instead of upper bounds), and repeats until every subquery
   has been evaluated.

The price is one planning pass per stage; the benefit is that grouping and
ordering decisions for the upper levels of the query are based on measured
rather than estimated sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..cost.estimates import StatisticsCatalog
from ..cost.models import CostModel, make_cost_model
from ..exec.base import ExecutionBackend, make_backend
from ..mapreduce.counters import ProgramMetrics
from ..mapreduce.engine import MapReduceEngine
from ..model.database import Database
from ..model.relation import Relation
from ..query.bsgf import BSGFQuery
from ..query.dependency import DependencyGraph
from ..query.sgf import SGFQuery
from .costing import PlanCostEstimator
from .greedy_bsgf import greedy_partition
from .greedy_sgf import greedy_multiway_sort
from .options import GumboOptions
from .plan import build_two_round_program
from .strategies import all_semijoin_specs, register_intermediate_estimates


@dataclass
class DynamicStage:
    """One stage of the dynamic evaluation: the group evaluated and its metrics."""

    index: int
    subqueries: List[str]
    msj_groups: int
    metrics: ProgramMetrics


@dataclass
class DynamicResult:
    """Outcome of a dynamic SGF evaluation."""

    query: SGFQuery
    outputs: Dict[str, Relation]
    stages: List[DynamicStage] = field(default_factory=list)

    @property
    def metrics(self) -> ProgramMetrics:
        """Aggregated metrics over all stages (net time adds up across stages)."""
        combined = ProgramMetrics()
        for stage in self.stages:
            combined = combined.merge(stage.metrics)
        return combined

    def output(self, name: Optional[str] = None) -> Relation:
        return self.outputs[name or self.query.output]


class DynamicSGFExecutor:
    """Evaluates an SGF query stage by stage, re-planning after every stage."""

    def __init__(
        self,
        engine: Optional[MapReduceEngine] = None,
        cost_model: Union[str, CostModel] = "gumbo",
        options: Optional[GumboOptions] = None,
        sample_size: int = 1000,
        backend: Union[str, ExecutionBackend, None] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.options = options or GumboOptions()
        if isinstance(backend, ExecutionBackend):
            # Validates that engine=/workers= do not conflict with the instance.
            self.backend = make_backend(backend, engine=engine, workers=workers)
            self.engine = backend.engine
        else:
            self.engine = engine or MapReduceEngine()
            self.backend = make_backend(
                backend if backend is not None else self.options.backend,
                engine=self.engine,
                workers=workers if workers is not None else self.options.workers,
            )
        if isinstance(cost_model, CostModel):
            self.cost_model = cost_model
        else:
            self.cost_model = make_cost_model(cost_model, self.engine.constants)
        self.sample_size = sample_size

    def close(self) -> None:
        """Release the backend's resources (its worker processes)."""
        self.backend.close()

    def __enter__(self) -> "DynamicSGFExecutor":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- planning helpers ---------------------------------------------------------

    def _estimator(self, database: Database, remaining: SGFQuery) -> PlanCostEstimator:
        catalog = StatisticsCatalog(database, sample_size=self.sample_size)
        estimator = PlanCostEstimator(
            catalog,
            self.cost_model,
            self.options,
            split_mb=self.engine.cluster.split_mb,
            mb_per_reducer=self.engine.mb_per_reducer_intermediate,
            mb_per_reducer_input=self.engine.mb_per_reducer_input,
        )
        # Outputs of *remaining* subqueries still need upper-bound estimates;
        # already-evaluated outputs are in the database with their true sizes.
        register_intermediate_estimates(remaining, catalog)
        return estimator

    # -- execution ------------------------------------------------------------------

    def execute(self, query: SGFQuery, database: Database) -> DynamicResult:
        """Evaluate *query*, re-planning after every evaluated group."""
        working = database.copy()
        outputs: Dict[str, Relation] = {}
        stages: List[DynamicStage] = []
        remaining: List[BSGFQuery] = list(query.subqueries)

        stage_index = 0
        while remaining:
            remaining_query = SGFQuery(
                tuple(remaining), name=f"{query.name}@{stage_index}"
            )
            estimator = self._estimator(working, remaining_query)
            graph = DependencyGraph(remaining_query)
            groups = greedy_multiway_sort(graph)
            first_group = groups[0]
            stage_queries = [graph.subquery(name) for name in first_group]

            specs = all_semijoin_specs(stage_queries)
            msj_groups = greedy_partition(specs, estimator)
            program = build_two_round_program(
                stage_queries,
                msj_groups,
                self.options,
                name=f"dynamic-stage-{stage_index}",
                job_prefix=f"d{stage_index}-",
            )
            result = self.backend.run_program(program, working)
            for name, relation in result.outputs.items():
                if name in {q.output for q in stage_queries}:
                    outputs[name] = relation
                working.add_relation(relation)

            stages.append(
                DynamicStage(
                    index=stage_index,
                    subqueries=[q.output for q in stage_queries],
                    msj_groups=len([g for g in msj_groups if g]),
                    metrics=result.metrics,
                )
            )
            evaluated = {q.output for q in stage_queries}
            remaining = [q for q in remaining if q.output not in evaluated]
            stage_index += 1

        return DynamicResult(query=query, outputs=outputs, stages=stages)
