"""The Gumbo facade: plan and execute SGF queries end to end.

:class:`Gumbo` is the public entry point of the library, playing the role of
the paper's Gumbo system (Section 5.1): it takes a query (text in the paper's
SQL-like syntax, or query objects), collects statistics over the database,
chooses a plan according to the requested strategy and cost model, runs the
resulting MR program on the simulated Hadoop engine, and returns the output
relations together with the four performance metrics.

Example
-------
>>> from repro import Gumbo, Database
>>> db = Database.from_dict({
...     "R": [(1, 2), (3, 4)],
...     "S": [(1,)],
...     "T": [(4,)],
... })
>>> gumbo = Gumbo()
>>> result = gumbo.execute(
...     "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR T(y);", db
... )
>>> sorted(result.output().tuples())
[(1, 2), (3, 4)]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from ..cost.estimates import StatisticsCatalog
from ..cost.models import CostModel, make_cost_model
from ..exec.base import ExecutionBackend, make_backend
from ..mapreduce.counters import ProgramMetrics
from ..mapreduce.engine import MapReduceEngine, ProgramResult
from ..mapreduce.program import MRProgram
from ..model.database import Database
from ..model.relation import Relation
from .. import obs
from ..query.bsgf import BSGFQuery
from ..query.dependency import DependencyGraph
from ..query.parser import parse_sgf
from ..query.sgf import SGFQuery
from .costing import PlanCostEstimator
from .greedy_sgf import greedy_multiway_sort
from .options import GumboOptions
from .strategies import (
    StrategyChoice,
    greedy_stage_program,
    plan_strategy,
    register_intermediate_estimates,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..service.service import Deadline

#: Anything Gumbo accepts as a query.
QueryLike = Union[str, BSGFQuery, SGFQuery, Sequence[BSGFQuery]]


@dataclass
class GumboResult:
    """Outcome of one Gumbo execution.

    ``strategy`` is the strategy that actually ran: when ``"auto"`` was
    requested it is the concrete winner of the cost comparison, and
    ``choice`` carries the full per-candidate cost breakdown.  ``outputs``
    is derived: the entries of ``all_outputs`` that are query roots.
    """

    query: SGFQuery
    strategy: str
    program: MRProgram
    all_outputs: Dict[str, Relation]
    metrics: ProgramMetrics
    choice: Optional[StrategyChoice] = None
    outputs: Dict[str, Relation] = field(init=False)

    def __post_init__(self) -> None:
        roots = set(self.query.root_names)
        self.outputs = {
            name: relation
            for name, relation in self.all_outputs.items()
            if name in roots
        }

    def output(self, name: Optional[str] = None) -> Relation:
        """The output relation called *name* (default: the query's final output)."""
        return self.all_outputs[name or self.query.output]

    def summary(self) -> Dict[str, float]:
        return self.metrics.summary()


class Gumbo:
    """Planner + executor for (B)SGF queries on the simulated MapReduce engine.

    The planning/execution layer underneath :func:`repro.connect` (which
    adds plan caching, incremental refresh and one ``Result`` type on top)
    and the layer the paper's experiments and ablations drive directly.
    :meth:`plan_with` is its one planning entry; :meth:`execute` plans and
    runs, :meth:`execute_dynamic` re-plans between stages (Section 4.6).

    Parameters
    ----------
    engine:
        The MapReduce engine to run plans on; a default engine over the
        paper's 10-node cluster is created when omitted.
    cost_model:
        ``"gumbo"`` (per-partition, Equation (2)) or ``"wang"`` (aggregate,
        Equation (3)), or a :class:`~repro.cost.models.CostModel` instance.
        This is the model driving *plan choice*; measured times always come
        from the engine.
    options:
        The Gumbo optimisation switches (packing, tuple references, ...);
        also carries the default backend/worker selection.
    sample_size:
        Tuples sampled per relation when collecting statistics.
    backend:
        Where plans actually run: ``"serial"`` (the in-process simulator),
        ``"parallel"`` (the multiprocessing runtime), or an
        :class:`~repro.exec.base.ExecutionBackend` instance.  Overrides
        ``options.backend``; outputs and simulated metrics are identical on
        every backend.
    workers:
        Worker-process count for the parallel backend (overrides
        ``options.workers``; None → CPU count).
    """

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
                shards=self.options.shards,
            )
        if isinstance(cost_model, CostModel):
            self.cost_model = cost_model
        else:
            self.cost_model = make_cost_model(cost_model, self.engine.constants)
        self.sample_size = sample_size

    def close(self) -> None:
        """Release the backend's resources (its worker processes)."""
        self.backend.close()

    def __enter__(self) -> "Gumbo":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- query normalisation -----------------------------------------------------

    @staticmethod
    def as_sgf(query: QueryLike) -> SGFQuery:
        """Normalise any accepted query form into an :class:`SGFQuery`."""
        if isinstance(query, str):
            return parse_sgf(query)
        if isinstance(query, SGFQuery):
            return query
        if isinstance(query, BSGFQuery):
            return SGFQuery((query,))
        return SGFQuery(tuple(query))

    def estimator(
        self, database: Database, cost_model: Optional[CostModel] = None
    ) -> PlanCostEstimator:
        """A cost estimator over fresh statistics of *database*."""
        catalog = StatisticsCatalog(database, sample_size=self.sample_size)
        return PlanCostEstimator(
            catalog,
            cost_model or self.cost_model,
            self.options,
            split_mb=self.engine.cluster.split_mb,
            mb_per_reducer=self.engine.mb_per_reducer_intermediate,
            mb_per_reducer_input=self.engine.mb_per_reducer_input,
        )

    # -- planning ----------------------------------------------------------------------

    def plan_with(
        self,
        query: QueryLike,
        database: Database,
        strategy: Optional[str],
        estimator: Optional[PlanCostEstimator] = None,
    ) -> "PlannedQuery":
        """Plan (but do not run) *query* under *strategy*.

        ``strategy=None`` uses ``options.default_strategy``; ``"auto"`` costs
        every applicable strategy and plans the cheapest.  The result names
        the strategy that actually planned the program (AUTO's winner, or the
        SGF counterpart of a BSGF name on a nested query, see
        :func:`~repro.core.strategies.plan_strategy`).  A pre-built
        *estimator* lets callers holding cached statistics (the query
        service) skip re-collecting them.
        """
        sgf = self.as_sgf(query)
        if strategy is None:
            strategy = self.options.default_strategy
        with obs.span("gumbo.plan", requested=strategy) as plan_span:
            if estimator is None:
                estimator = self.estimator(database)
            resolved, program, choice = plan_strategy(
                sgf, strategy, estimator, self.options
            )
            plan_span.set(strategy=resolved, jobs=len(program))
        return PlannedQuery(
            query=sgf, strategy=resolved, program=program, choice=choice
        )

    # -- execution --------------------------------------------------------------------------

    def execute(
        self,
        query: QueryLike,
        database: Database,
        strategy: Optional[str] = None,
    ) -> GumboResult:
        """Plan and run *query*, returning outputs and metrics.

        ``strategy=None`` uses ``options.default_strategy``; ``"auto"``
        selects the cheapest applicable strategy by estimated cost (the
        result's ``strategy`` is the concrete winner, ``choice`` the
        breakdown).
        """
        with obs.trace("gumbo.execute", enabled=self.options.trace) as handle:
            planned = self.plan_with(query, database, strategy)
            handle.set(strategy=planned.strategy, backend=self.backend.name)
            return self.execute_program(
                planned.query,
                database,
                planned.program,
                strategy=planned.strategy,
                choice=planned.choice,
            )

    def execute_program(
        self,
        query: QueryLike,
        database: Database,
        program: MRProgram,
        strategy: str = "planned",
        choice: Optional[StrategyChoice] = None,
        deadline: Optional["Deadline"] = None,
    ) -> GumboResult:
        """Run an already-planned *program* for *query* on the backend.

        The plan-caching query service uses this to skip planning entirely on
        a cache hit, with its request's *deadline*; :meth:`execute` funnels
        through it as well so results are assembled identically.
        """
        sgf = self.as_sgf(query)
        with obs.trace(
            "gumbo.execute_program",
            enabled=self.options.trace,
            strategy=strategy,
            backend=self.backend.name,
        ):
            result: ProgramResult = self.backend.run_program(
                program, database, deadline=deadline
            )
        output_names = set(sgf.output_names)
        return GumboResult(
            query=sgf,
            strategy=strategy,
            program=program,
            all_outputs={
                name: relation
                for name, relation in result.outputs.items()
                if name in output_names
            },
            metrics=result.metrics,
            choice=choice,
        )

    def execute_dynamic(self, query: QueryLike, database: Database) -> "DynamicResult":
        """Evaluate *query* stage by stage, re-planning after every stage.

        Section 4.6's dynamic strategy: static plans size intermediates by
        upper bounds, so this loop instead

        1. runs ``Greedy-SGF`` over the not-yet-evaluated subqueries,
        2. runs only the *first* group of that multiway topological sort
           (as GOPT, the ``Greedy-BSGF`` grouping) on the backend,
        3. adds every output to a working copy of the database, whose fresh
           statistics give later stages the intermediates' *actual* sizes,

        until every subquery has been evaluated.  The price is one planning
        pass per stage.
        """
        sgf = self.as_sgf(query)
        working = database.copy()
        outputs: Dict[str, Relation] = {}
        stages: List[DynamicStage] = []
        remaining: List[BSGFQuery] = list(sgf.subqueries)
        while remaining:
            index = len(stages)
            remaining_query = SGFQuery(tuple(remaining), name=f"{sgf.name}@{index}")
            estimator = self.estimator(working)
            # Only the outputs still to come need upper-bound estimates.
            register_intermediate_estimates(remaining_query, estimator.catalog)
            graph = DependencyGraph(remaining_query)
            first_group = greedy_multiway_sort(graph)[0]
            stage_queries = [graph.subquery(name) for name in first_group]
            program = greedy_stage_program(
                stage_queries,
                estimator,
                self.options,
                name=f"dynamic-stage-{index}",
                job_prefix=f"d{index}-",
            )
            result = self.backend.run_program(program, working)
            evaluated = [q.output for q in stage_queries]
            for name, relation in result.outputs.items():
                if name in evaluated:
                    outputs[name] = relation
                working.add_relation(relation)
            stages.append(
                DynamicStage(
                    index=index,
                    subqueries=evaluated,
                    msj_groups=len(program) - 1,  # every job but the EVAL
                    metrics=result.metrics,
                )
            )
            remaining = [q for q in remaining if q.output not in evaluated]
        return DynamicResult(query=sgf, outputs=outputs, stages=stages)

    # -- incremental delta evaluation ---------------------------------------------

    def materialize(
        self,
        query: QueryLike,
        database: Database,
        strategy: Optional[str] = None,
    ):
        """Execute *query* and keep the state needed for incremental refreshes.

        Returns a :class:`~repro.incremental.materialize.Materialization`
        whose output relations are maintained **in place** by
        :meth:`execute_delta`; the materialized outputs are verified against
        the planned program's outputs at construction time.
        """
        from ..incremental.engine import materialize_query

        return materialize_query(self, query, database, strategy)

    def execute_delta(self, materialization, inserts):
        """Apply a batch of inserted tuples to a materialized result.

        *inserts* maps relation names to tuples; the batch is applied to the
        materialization's database and the output delta — only the
        consequences of the batch, not the whole program — is computed from
        the maintained indexes and merged.  Returns a
        :class:`~repro.incremental.engine.DeltaResult`.
        """
        from ..incremental.engine import refresh

        with obs.trace("gumbo.execute_delta", enabled=self.options.trace):
            return refresh(materialization, inserts)


@dataclass
class DynamicStage:
    """One stage of a dynamic evaluation: the group evaluated and its metrics."""

    index: int
    subqueries: List[str]
    msj_groups: int
    metrics: ProgramMetrics


@dataclass
class DynamicResult:
    """Outcome of :meth:`Gumbo.execute_dynamic`: every subquery's output."""

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


@dataclass(frozen=True)
class PlannedQuery:
    """A planned (but not yet executed) query: what the plan cache stores."""

    query: SGFQuery
    strategy: str
    program: MRProgram
    choice: Optional[StrategyChoice] = None
