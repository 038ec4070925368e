"""Tests for the AUTO strategy: cost dominance, program costing, exposure."""

import random

import pytest

from repro import Database
from repro.core.costing import PlanCostEstimator
from repro.core.gumbo import Gumbo
from repro.core.options import GumboOptions
from repro.core.strategies import (
    AUTO,
    applicable_strategies,
    build_bsgf_program,
    build_sgf_program,
    choose_strategy,
    plan_strategy,
)
from repro.cost.estimates import StatisticsCatalog
from repro.fuzz.generator import generate_case
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.program import MRProgram
from repro.query.parser import parse_sgf
from repro.query.reference import evaluate_sgf
from repro.workloads.queries import database_for, section5_workloads, workload_query

from helpers import small_database, star_database

#: Small but non-trivial workload size: enough tuples that the cost model
#: sees real size differences between the candidate plans.
GUARD_TUPLES = 400


def estimator_for(db, options=None):
    return PlanCostEstimator(
        StatisticsCatalog(db, sample_size=200), options=options or GumboOptions()
    )


def section5_cases():
    for query_id, query in section5_workloads():
        yield pytest.param(query_id, query, id=query_id)


class TestProgramCosting:
    """program_estimate / program_cost over every strategy's program shape."""

    @pytest.mark.parametrize("query_id,query", list(section5_cases()))
    def test_every_applicable_program_costs_positive(self, query_id, query):
        db = database_for(query, guard_tuples=60, seed=1)
        for strategy in applicable_strategies(query):
            estimator = estimator_for(db)
            if query.intermediate_names:
                program = build_sgf_program(query, strategy, estimator)
            else:
                program = build_bsgf_program(
                    list(query.subqueries), strategy, estimator
                )
            estimate = estimator.program_estimate(program)
            assert estimate.cost > 0.0
            assert len(estimate.jobs) == len(program)
            assert estimate.cost == pytest.approx(sum(estimate.breakdown().values()))

    def test_breakdown_keys_are_job_ids(self):
        db = star_database()
        query = parse_sgf(
            "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE S(x) AND T(y);"
        )
        estimator = estimator_for(db)
        program = build_bsgf_program(list(query.subqueries), "greedy", estimator)
        estimate = estimator.program_estimate(program)
        assert set(estimate.breakdown()) == set(program.job_ids)

    def test_unknown_job_type_raises(self):
        class MysteryJob(MapReduceJob):
            def input_relations(self):
                return []

            def output_schema(self):
                return {}

            def map(self, relation, row):
                return []

            def reduce(self, key, values):
                return []

        program = MRProgram("mystery")
        program.add_job(MysteryJob("m0"))
        with pytest.raises(TypeError):
            estimator_for(small_database()).program_cost(program)


class TestAutoDominance:
    """AUTO's winner is estimated-cost-minimal over every applicable strategy."""

    @pytest.mark.parametrize("query_id,query", list(section5_cases()))
    def test_auto_cost_le_every_candidate(self, query_id, query):
        db = database_for(query, guard_tuples=GUARD_TUPLES, seed=7)
        choice = choose_strategy(query, estimator_for(db))
        assert choice.strategy in applicable_strategies(query)
        assert not choice.errors
        # The winner's cost is the minimum over the full candidate matrix.
        for name, cost in choice.costs.items():
            assert choice.cost <= cost + 1e-9, (
                f"{query_id}: AUTO chose {choice.strategy} at {choice.cost}, "
                f"but {name} is cheaper at {cost}"
            )
        assert choice.cost == pytest.approx(min(choice.costs.values()))

    @pytest.mark.parametrize("query_id,query", list(section5_cases()))
    def test_auto_cost_le_forced_strategy_fresh_estimators(self, query_id, query):
        """Cross-check with independently built estimators per candidate."""
        db = database_for(query, guard_tuples=GUARD_TUPLES, seed=7)
        choice = choose_strategy(query, estimator_for(db))
        for strategy in applicable_strategies(query):
            estimator = estimator_for(db)
            if query.intermediate_names:
                program = build_sgf_program(query, strategy, estimator)
            else:
                program = build_bsgf_program(
                    list(query.subqueries), strategy, estimator
                )
            assert choice.cost <= estimator.program_cost(program) + 1e-9

    def test_describe_mentions_winner_and_costs(self):
        query = workload_query("A3")
        db = database_for(query, guard_tuples=100, seed=0)
        choice = choose_strategy(query, estimator_for(db))
        text = choice.describe()
        assert choice.strategy in text
        for name in choice.costs:
            assert name in text


class TestAutoThroughGumbo:
    def test_execute_auto_matches_reference(self):
        db = star_database()
        query = parse_sgf(
            "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) "
            "WHERE S(x) AND T(y) AND U(z) AND V(w);"
        )
        result = Gumbo().execute(query, db, AUTO)
        expected = evaluate_sgf(query, db)
        assert result.output().tuples() == expected["Z"].tuples()
        # The result reports the concrete winner plus the full breakdown.
        assert result.strategy in applicable_strategies(query)
        assert result.choice is not None
        assert result.choice.strategy == result.strategy

    def test_execute_auto_nested_matches_reference(self):
        db = small_database()
        query = parse_sgf(
            "M := SELECT (x) FROM R(x, y) WHERE S(x);"
            "Z := SELECT (x, y) FROM R(x, y) WHERE M(x) AND NOT T(y);"
        )
        result = Gumbo().execute(query, db, AUTO)
        expected = evaluate_sgf(query, db)
        assert result.output().tuples() == expected["Z"].tuples()
        assert result.strategy in applicable_strategies(query)

    def test_default_strategy_option_routes_to_auto(self):
        db = small_database()
        gumbo = Gumbo(options=GumboOptions(default_strategy="auto"))
        result = gumbo.execute("Z := SELECT (x) FROM R(x, y) WHERE S(x);", db)
        assert result.choice is not None
        assert result.strategy == result.choice.strategy

    @pytest.mark.parametrize("alias", ["AUTO", "cost", "best", " Auto "])
    def test_auto_aliases(self, alias):
        db = small_database()
        result = Gumbo().execute("Z := SELECT (x) FROM R(x, y) WHERE S(x);", db, alias)
        assert result.choice is not None

    def test_plan_auto_returns_winning_program(self):
        db = star_database()
        query = "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE S(x) AND T(x);"
        gumbo = Gumbo()
        planned = gumbo.plan_with(query, db, AUTO)
        program = planned.program
        choice = choose_strategy(Gumbo.as_sgf(query), gumbo.estimator(db))
        assert planned.strategy == choice.strategy
        assert planned.choice.costs == choice.costs
        assert program.rounds() == choice.program.rounds()
        assert len(program) == len(choice.program)


def _jobs(program):
    return [
        (job.job_id, type(job).__name__, sorted(program.dependencies_of(job.job_id)))
        for level in program.levels()
        for job in level
    ]


class TestPricedFromPartitions:
    """AUTO prices PAR/GREEDY/OPTIMAL/1-ROUND and the SGF strategies from
    their partitions and sorts and builds only the winner: every price must
    equal, bit for bit, the program cost of the per-name path, and the winner
    must be the very program that path builds."""

    SEED, CASES = 36, 200

    @staticmethod
    def assert_same_as_per_name_path(query, database, label):
        base = PlanCostEstimator(StatisticsCatalog(database))
        choice = choose_strategy(query, base.scratch_copy())
        assert not choice.errors, (label, choice.errors)
        names = applicable_strategies(query)
        assert list(choice.costs) == names
        for name in names:
            estimator = base.scratch_copy()
            _, program, _ = plan_strategy(query, name, estimator)
            cost = estimator.program_cost(program)
            assert choice.costs[name].hex() == cost.hex(), (label, name)
            if name == choice.strategy:
                assert choice.program.name == program.name
                assert _jobs(choice.program) == _jobs(program), label

    def test_fuzz_programs(self):
        shapes = {"flat": 0, "nested": 0}
        for index in range(self.CASES):
            case = generate_case(self.SEED, index)
            query = case.program
            self.assert_same_as_per_name_path(query, case.database, case.case_id)
            shapes["nested" if query.intermediate_names else "flat"] += 1
        assert min(shapes.values()) >= 50, shapes

    def test_job_ids_order_the_sum(self):
        # Twelve semi-joins: PAR's jobs msj-10 and msj-11 sort before msj-2,
        # and the program walk adds the costs in that order.
        rng = random.Random(5)
        rows = {"R": [tuple(rng.randrange(50) for _ in range(4)) for _ in range(300)]}
        for i in range(12):
            rows[f"C{i}"] = [(rng.randrange(50),) for _ in range(7 * i + 3)]
        condition = " AND ".join(f"C{i}({'xyzw'[i % 4]})" for i in range(12))
        query = parse_sgf(f"Z := SELECT (x, y) FROM R(x, y, z, w) WHERE {condition};")
        database = Database.from_dict(rows)
        self.assert_same_as_per_name_path(query, database, "twelve semi-joins")
