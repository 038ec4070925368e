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

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

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
from ..query.parser import parse_sgf
from ..query.sgf import SGFQuery
from .costing import PlanCostEstimator
from .options import GumboOptions
from .strategies import (
    AUTO,
    GREEDY,
    GREEDY_SGF,
    PAR,
    PARUNIT,
    SEQ,
    SEQUNIT,
    SGF_STRATEGIES,
    StrategyChoice,
    build_bsgf_program,
    build_sgf_program,
    choose_strategy,
    normalise_strategy,
)

#: Anything Gumbo accepts as a query.
QueryLike = Union[str, BSGFQuery, SGFQuery, Sequence[BSGFQuery]]

#: Mapping applied when a BSGF strategy name is used for a nested SGF query.
_SGF_EQUIVALENT = {SEQ: SEQUNIT, PAR: PARUNIT, GREEDY: GREEDY_SGF}


@dataclass
class GumboResult:
    """Outcome of one Gumbo execution.

    ``strategy`` is the strategy that actually ran: when ``"auto"`` was
    requested it is the concrete winner of the cost comparison, and
    ``choice`` carries the full per-candidate cost breakdown.
    """

    query: SGFQuery
    strategy: str
    program: MRProgram
    outputs: Dict[str, Relation]
    all_outputs: Dict[str, Relation]
    metrics: ProgramMetrics
    choice: Optional[StrategyChoice] = None

    def output(self, name: Optional[str] = None) -> Relation:
        """The output relation called *name* (default: the query's final output)."""
        return self.all_outputs[name or self.query.output]

    def summary(self) -> Dict[str, float]:
        return self.metrics.summary()


class Gumbo:
    """Planner + executor for (B)SGF queries on the simulated MapReduce engine.

    .. note:: *Deprecated as a client entry point.*  New code should open a
       connection with :func:`repro.connect` — one unified ``Connection`` /
       ``Result`` API over every backend, with plan caching and incremental
       refresh built in.  ``Gumbo`` remains fully supported as the planning/
       execution layer underneath (and for ablation-style direct use).

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
        from ..deprecation import warn_legacy_entry_point

        warn_legacy_entry_point("Gumbo")
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
                data_plane=self.options.data_plane,
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

    def plan(
        self,
        query: QueryLike,
        database: Database,
        strategy: Optional[str] = None,
    ) -> MRProgram:
        """Build (but do not run) the MR program for *query* under *strategy*.

        ``strategy=None`` uses ``options.default_strategy``; ``"auto"`` costs
        every applicable strategy and plans the cheapest.
        """
        sgf = self.as_sgf(query)
        program, _, _ = self._plan_resolved(sgf, database, strategy)
        return program

    def choose(
        self,
        query: QueryLike,
        database: Database,
        include_optimal: bool = True,
    ) -> StrategyChoice:
        """Cost-based strategy selection: every applicable candidate, costed.

        This is the AUTO strategy's engine, exposed for inspection — the
        returned :class:`StrategyChoice` has the winning program plus the
        estimated cost of every candidate.
        """
        sgf = self.as_sgf(query)
        return choose_strategy(
            sgf,
            self.estimator(database),
            self.options,
            include_optimal=include_optimal,
        )

    def plan_with(
        self,
        query: QueryLike,
        database: Database,
        strategy: Optional[str],
        estimator: Optional[PlanCostEstimator] = None,
    ) -> "PlannedQuery":
        """Plan *query* and return the program plus the concrete strategy.

        Unlike :meth:`plan` this reports which strategy actually planned the
        program (AUTO resolves to its winner) and accepts a pre-built
        *estimator* so callers holding cached statistics (the query service)
        can skip re-collecting them.
        """
        sgf = self.as_sgf(query)
        program, resolved, choice = self._plan_resolved(
            sgf, database, strategy, estimator
        )
        return PlannedQuery(
            query=sgf, strategy=resolved, program=program, choice=choice
        )

    def _plan_resolved(
        self,
        sgf: SGFQuery,
        database: Database,
        strategy: Optional[str],
        estimator: Optional[PlanCostEstimator] = None,
    ) -> Tuple[MRProgram, str, Optional[StrategyChoice]]:
        """Plan under the resolved strategy: (program, concrete name, choice)."""
        resolved = self._resolve_strategy(sgf, strategy)
        with obs.span("gumbo.plan", requested=resolved) as plan_span:
            if estimator is None:
                estimator = self.estimator(database)
            if resolved == AUTO:
                with obs.span("gumbo.choose"):
                    choice = choose_strategy(sgf, estimator, self.options)
                plan_span.set(strategy=choice.strategy, jobs=len(choice.program))
                return choice.program, choice.strategy, choice
            if resolved in SGF_STRATEGIES:
                program = build_sgf_program(sgf, resolved, estimator, self.options)
            else:
                program = build_bsgf_program(
                    list(sgf.subqueries), resolved, estimator, self.options
                )
            plan_span.set(strategy=resolved, jobs=len(program))
            return program, resolved, None

    def _resolve_strategy(self, query: SGFQuery, strategy: Optional[str]) -> str:
        if strategy is None:
            strategy = self.options.default_strategy
        normalised = normalise_strategy(strategy)
        has_dependencies = bool(query.intermediate_names)
        if has_dependencies and normalised in _SGF_EQUIVALENT:
            return _SGF_EQUIVALENT[normalised]
        return normalised

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
        sgf = self.as_sgf(query)
        with obs.trace("gumbo.execute", enabled=self.options.trace) as handle:
            program, resolved, choice = self._plan_resolved(sgf, database, strategy)
            handle.set(strategy=resolved, backend=self.backend.name)
            return self.execute_program(
                sgf, database, program, strategy=resolved, choice=choice
            )

    def execute_program(
        self,
        query: QueryLike,
        database: Database,
        program: MRProgram,
        strategy: str = "planned",
        choice: Optional[StrategyChoice] = None,
    ) -> GumboResult:
        """Run an already-planned *program* for *query* on the backend.

        The plan-caching query service uses this to skip planning entirely on
        a cache hit; :meth:`execute` funnels through it as well so results are
        assembled identically.
        """
        sgf = self.as_sgf(query)
        with obs.trace(
            "gumbo.execute_program",
            enabled=self.options.trace,
            strategy=strategy,
            backend=self.backend.name,
        ):
            result: ProgramResult = self.backend.run_program(program, database)
        roots = set(sgf.root_names)
        outputs = {
            name: relation
            for name, relation in result.outputs.items()
            if name in roots
        }
        all_outputs = {
            name: relation
            for name, relation in result.outputs.items()
            if name in set(sgf.output_names)
        }
        return GumboResult(
            query=sgf,
            strategy=strategy,
            program=program,
            outputs=outputs,
            all_outputs=all_outputs,
            metrics=result.metrics,
            choice=choice,
        )

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

    def compare_strategies(
        self,
        query: QueryLike,
        database: Database,
        strategies: Sequence[str],
    ) -> Dict[str, GumboResult]:
        """Run *query* under several strategies and return all results."""
        return {
            strategy: self.execute(query, database, strategy)
            for strategy in strategies
        }


@dataclass(frozen=True)
class PlannedQuery:
    """A planned (but not yet executed) query: what the plan cache stores."""

    query: SGFQuery
    strategy: str
    program: MRProgram
    choice: Optional[StrategyChoice] = None
