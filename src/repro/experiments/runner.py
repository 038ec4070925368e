"""Shared machinery for the experiment drivers: running strategies, collecting records.

Every experiment of Section 5 boils down to: build a query (set), generate its
database at the chosen scale, evaluate it under several strategies, and report
the four metrics (net time, total time, HDFS input, communication).
:class:`ExperimentRunner` packages that loop; :class:`RunRecord` is one
(query, strategy) measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..baselines.plans import (
    BASELINE_STRATEGIES,
    build_baseline_program,
    reducer_mb_for,
)
from ..core.gumbo import Gumbo
from ..core.options import GumboOptions
from ..core.strategies import normalise_strategy
from ..cost.models import CostModel
from ..model.database import Database
from ..query.bsgf import BSGFQuery
from ..query.sgf import SGFQuery
from ..workloads.scaling import DEFAULT_SCALE, ScaledEnvironment

QueryInput = Union[Sequence[BSGFQuery], SGFQuery]


@dataclass
class RunRecord:
    """One measured evaluation of a query under a strategy.

    Times are simulated seconds of the paper-scale system (the scaled cost
    environment preserves them); ``input_gb`` and ``communication_gb`` are
    reported at paper-equivalent volume (measured bytes divided by the
    workload scale factor) so they can be compared with Figures 3–5 directly.
    """

    query_id: str
    strategy: str
    net_time: float
    total_time: float
    input_gb: float
    communication_gb: float
    jobs: int
    rounds: int
    output_tuples: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        base = {
            "query": self.query_id,
            "strategy": self.strategy,
            "net_time_s": round(self.net_time, 1),
            "total_time_s": round(self.total_time, 1),
            "input_gb": round(self.input_gb, 2),
            "communication_gb": round(self.communication_gb, 2),
            "jobs": self.jobs,
            "rounds": self.rounds,
            "output_tuples": self.output_tuples,
        }
        base.update({k: round(v, 3) for k, v in self.extra.items()})
        return base

    def relative_to(self, baseline: "RunRecord") -> Dict[str, float]:
        """Metrics as percentages of *baseline* (the paper's Figure 3b style)."""

        def pct(value: float, reference: float) -> float:
            return 100.0 * value / reference if reference else 0.0

        return {
            "net_time_pct": pct(self.net_time, baseline.net_time),
            "total_time_pct": pct(self.total_time, baseline.total_time),
            "input_pct": pct(self.input_gb, baseline.input_gb),
            "communication_pct": pct(self.communication_gb, baseline.communication_gb),
        }


class ExperimentRunner:
    """Runs Gumbo strategies and the Pig/Hive baselines in one environment."""

    def __init__(
        self,
        environment: Optional[ScaledEnvironment] = None,
        options: Optional[GumboOptions] = None,
        cost_model: Union[str, CostModel] = "gumbo",
        sample_size: int = 500,
    ) -> None:
        self.environment = environment or ScaledEnvironment(scale=DEFAULT_SCALE)
        self.options = options or GumboOptions()
        self.cost_model = cost_model
        self.sample_size = sample_size

    # -- single runs -------------------------------------------------------------------

    def run_gumbo(
        self,
        query_id: str,
        queries: QueryInput,
        strategy: str,
        database: Database,
        environment: Optional[ScaledEnvironment] = None,
    ) -> RunRecord:
        """Evaluate *queries* with a Gumbo strategy and record the metrics."""
        env = environment or self.environment
        gumbo = Gumbo(
            engine=env.engine(),
            cost_model=self.cost_model,
            options=self.options,
            sample_size=self.sample_size,
        )
        result = gumbo.execute(queries, database, strategy)
        metrics = result.metrics
        output_tuples = sum(len(rel) for rel in result.outputs.values())
        return RunRecord(
            query_id=query_id,
            strategy=strategy.upper(),
            net_time=metrics.net_time,
            total_time=metrics.total_time,
            input_gb=metrics.input_gb / env.scale,
            communication_gb=metrics.communication_gb / env.scale,
            jobs=metrics.num_jobs,
            rounds=metrics.rounds,
            output_tuples=output_tuples,
        )

    def run_baseline(
        self,
        query_id: str,
        queries: Sequence[BSGFQuery],
        strategy: str,
        database: Database,
        environment: Optional[ScaledEnvironment] = None,
    ) -> RunRecord:
        """Evaluate a BSGF query set with one of the Pig/Hive baselines."""
        env = environment or self.environment
        program = build_baseline_program(list(queries), strategy)
        engine = env.baseline_engine(reducer_mb_for(strategy))
        result = engine.run_program(program, database)
        metrics = result.metrics
        outputs = {q.output for q in queries}
        output_tuples = sum(
            len(rel) for name, rel in result.outputs.items() if name in outputs
        )
        return RunRecord(
            query_id=query_id,
            strategy=strategy.upper(),
            net_time=metrics.net_time,
            total_time=metrics.total_time,
            input_gb=metrics.input_gb / env.scale,
            communication_gb=metrics.communication_gb / env.scale,
            jobs=metrics.num_jobs,
            rounds=metrics.rounds,
            output_tuples=output_tuples,
        )

    def run_strategy(
        self,
        query_id: str,
        queries: QueryInput,
        strategy: str,
        database: Database,
        environment: Optional[ScaledEnvironment] = None,
    ) -> RunRecord:
        """Dispatch to Gumbo or baseline execution based on the strategy name."""
        normalised = normalise_strategy(strategy)
        if normalised in BASELINE_STRATEGIES:
            if isinstance(queries, SGFQuery):
                queries = list(queries.subqueries)
            return self.run_baseline(
                query_id, queries, normalised, database, environment
            )
        return self.run_gumbo(query_id, queries, normalised, database, environment)

    # -- sweeps -----------------------------------------------------------------------------

    def run_matrix(
        self,
        query_id: str,
        queries: QueryInput,
        strategies: Sequence[str],
        database: Database,
        environment: Optional[ScaledEnvironment] = None,
    ) -> List[RunRecord]:
        """Run several strategies over the same query and database."""
        return [
            self.run_strategy(query_id, queries, strategy, database, environment)
            for strategy in strategies
        ]
