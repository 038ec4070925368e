"""Unit and integration tests for the plan strategies (SEQ/PAR/GREEDY/1-ROUND/SGF)."""

import pytest

import repro
from repro.cli import main
from repro.core.costing import PlanCostEstimator
from repro.core.gumbo import Gumbo
from repro.core.options import GumboOptions
from repro.core.strategies import (
    AUTO,
    BSGF_STRATEGIES,
    GREEDY,
    MAX_OPTIMAL_SPECS,
    MAX_OPTIMAL_SUBQUERIES,
    ONE_ROUND,
    OPTIMAL,
    OPTIMAL_SGF,
    PAR,
    SEQ,
    SGF_STRATEGIES,
    all_semijoin_specs,
    bsgf_plan,
    build_bsgf_program,
    build_sgf_program,
    plan_strategy,
    register_intermediate_estimates,
)
from repro.cost.estimates import StatisticsCatalog
from repro.fuzz.generator import generate_case
from repro.io import save_database
from repro.mapreduce.engine import MapReduceEngine
from repro.model.database import Database
from repro.query.reference import evaluate_bsgf, evaluate_sgf
from repro.query.sgf import SGFQuery
from repro.workloads.queries import bsgf_query_set, database_for, sgf_query

from helpers import (
    as_set,
    disjunctive_query,
    nested_sgf,
    shared_key_query,
    simple_query,
    small_database,
    star_database,
    star_query,
)


def estimator_for(db):
    return PlanCostEstimator(
        StatisticsCatalog(db, sample_size=200), options=GumboOptions()
    )


class TestBSGFStrategies:
    @pytest.mark.parametrize("strategy", ["seq", "par", "greedy", "optimal"])
    @pytest.mark.parametrize(
        "query_factory, db_factory",
        [
            (simple_query, small_database),
            (disjunctive_query, small_database),
            (star_query, star_database),
            (shared_key_query, star_database),
        ],
    )
    def test_all_strategies_match_reference(self, strategy, query_factory, db_factory):
        query, db = query_factory(), db_factory()
        program = build_bsgf_program([query], strategy, estimator_for(db))
        result = MapReduceEngine().run_program(program, db)
        assert as_set(result.outputs[query.output]) == as_set(evaluate_bsgf(query, db))

    def test_one_round_matches_reference_when_applicable(self):
        query, db = shared_key_query(), star_database()
        program = build_bsgf_program([query], "1-round", estimator_for(db))
        result = MapReduceEngine().run_program(program, db)
        assert as_set(result.outputs[query.output]) == as_set(evaluate_bsgf(query, db))

    def test_one_round_rejected_when_not_applicable(self):
        query, db = star_query(), star_database()
        with pytest.raises(ValueError):
            build_bsgf_program([query], "1-round", estimator_for(db))

    def test_greedy_requires_estimator(self):
        with pytest.raises(ValueError):
            build_bsgf_program([star_query()], "greedy")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            build_bsgf_program([star_query()], "magic", estimator_for(star_database()))

    def test_no_queries_rejected(self):
        with pytest.raises(ValueError):
            build_bsgf_program([], "par")

    def test_par_builds_one_msj_job_per_semijoin(self):
        query, db = star_query(), star_database()
        program = build_bsgf_program([query], "par", estimator_for(db))
        assert len(program) == len(query.semijoin_specs()) + 1
        assert program.rounds() == 2

    def test_greedy_on_shared_guard_builds_fewer_jobs(self):
        query, db = star_query(), star_database()
        par = build_bsgf_program([query], "par", estimator_for(db))
        greedy = build_bsgf_program([query], "greedy", estimator_for(db))
        assert len(greedy) < len(par)

    def test_seq_rounds_grow_with_conjunction_size(self):
        db = star_database()
        program = build_bsgf_program([star_query()], "seq", estimator_for(db))
        assert program.rounds() == 4

    def test_multiple_queries_evaluated_together(self):
        queries = bsgf_query_set("A5")
        db = database_for(queries, guard_tuples=200, selectivity=0.5, seed=1)
        program = build_bsgf_program(queries, "greedy", estimator_for(db))
        result = MapReduceEngine().run_program(program, db)
        for query in queries:
            assert as_set(result.outputs[query.output]) == as_set(
                evaluate_bsgf(query, db)
            )

    def test_strategy_name_normalisation(self):
        query, db = SGFQuery((shared_key_query(),)), star_database()
        name, program, _ = plan_strategy(query, "GREEDY", estimator_for(db))
        assert name == "greedy" and len(program) >= 2
        # "ONE_ROUND" is accepted as an alias of the canonical "1-round".
        name, aliased, _ = plan_strategy(query, "ONE_ROUND", estimator_for(db))
        assert name == "1-round" and len(aliased) == 1

    def test_bsgf_plan_views(self):
        query, db = star_query(), star_database()
        est = estimator_for(db)
        par = bsgf_plan([query], "par", est)
        greedy = bsgf_plan([query], "greedy", est)
        one_round = bsgf_plan([query], "1-round", est)
        assert len(par.groups) == 4
        assert len(greedy.groups) <= len(par.groups)
        assert len(one_round.groups) == 1
        with pytest.raises(ValueError):
            bsgf_plan([query], "seq", est)


class TestSGFStrategies:
    @pytest.mark.parametrize("strategy", ["sequnit", "parunit", "greedy-sgf"])
    def test_nested_query_matches_reference(self, strategy):
        query = nested_sgf()
        db = small_database()
        estimator = estimator_for(db)
        program = build_sgf_program(query, strategy, estimator)
        result = MapReduceEngine().run_program(program, db)
        reference = evaluate_sgf(query, db)
        for name in query.output_names:
            assert as_set(result.outputs[name]) == as_set(reference[name]), name

    @pytest.mark.parametrize("query_id", ["C1", "C4"])
    @pytest.mark.parametrize("strategy", ["sequnit", "parunit", "greedy-sgf"])
    def test_experiment_queries_match_reference(self, query_id, strategy):
        query = sgf_query(query_id)
        db = database_for(query, guard_tuples=150, selectivity=0.5, seed=3)
        program = build_sgf_program(query, strategy, estimator_for(db))
        result = MapReduceEngine().run_program(program, db)
        reference = evaluate_sgf(query, db)
        for name in query.output_names:
            assert as_set(result.outputs[name]) == as_set(reference[name]), name

    def test_optimal_sgf_matches_reference_on_small_query(self):
        query = nested_sgf()
        db = small_database()
        program = build_sgf_program(query, "optimal-sgf", estimator_for(db))
        result = MapReduceEngine().run_program(program, db)
        reference = evaluate_sgf(query, db)
        assert as_set(result.outputs[query.output]) == as_set(reference[query.output])

    def test_sequnit_has_more_rounds_than_parunit(self):
        query = sgf_query("C1")
        db = database_for(query, guard_tuples=100, selectivity=0.5, seed=3)
        estimator = estimator_for(db)
        sequnit = build_sgf_program(query, "sequnit", estimator)
        parunit = build_sgf_program(query, "parunit", estimator)
        assert sequnit.rounds() > parunit.rounds()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            build_sgf_program(nested_sgf(), "magic", estimator_for(small_database()))

    def test_greedy_sgf_requires_estimator(self):
        with pytest.raises(ValueError):
            build_sgf_program(nested_sgf(), "greedy-sgf", None)

    def test_register_intermediate_estimates(self):
        query = nested_sgf()
        db = small_database()
        catalog = StatisticsCatalog(db)
        register_intermediate_estimates(query, catalog)
        for name in query.output_names:
            assert catalog.has_relation(name)

    def test_all_semijoin_specs_flattens(self):
        queries = bsgf_query_set("A5")
        specs = all_semijoin_specs(queries)
        assert len(specs) == 8
        assert len({s.output for s in specs}) == 8

    def test_strategy_constants(self):
        assert set(BSGF_STRATEGIES) == {"seq", "par", "greedy", "optimal", "1-round"}
        assert set(SGF_STRATEGIES) == {
            "sequnit",
            "parunit",
            "greedy-sgf",
            "optimal-sgf",
        }


#: Two statements, the second reading the first: a nested SGF query.
NESTED_TEXT = (
    "X := SELECT (x, y) FROM R(x, y) WHERE S(x); "
    "Z := SELECT x FROM X(x, y) WHERE T(y);"
)
NESTED_ROWS = {"R": [(1, 2), (3, 4)], "S": [(1,)], "T": [(2,)]}


class TestStrategyResolution:
    """Every requested name is resolved for the query by ``plan_strategy``."""

    @pytest.mark.parametrize(
        "requested, planned",
        [
            ("seq", "sequnit"),
            ("par", "parunit"),
            ("greedy", "greedy-sgf"),
            ("optimal", "optimal-sgf"),
            ("OPTIMAL", "optimal-sgf"),
        ],
    )
    def test_bsgf_names_plan_sgf_counterparts_of_nested_queries(
        self, requested, planned
    ):
        with repro.connect(NESTED_ROWS) as conn:
            result = conn.execute(NESTED_TEXT, requested)
        assert result.strategy == planned
        assert sorted(result.tuples()) == [(1,)]

    def test_one_round_on_nested_query_raises(self, tmp_path):
        database = Database.from_dict(NESTED_ROWS)
        with pytest.raises(ValueError, match="1-ROUND"):
            Gumbo().execute(NESTED_TEXT, database, "1-round")
        with repro.connect(NESTED_ROWS) as conn:
            with pytest.raises(ValueError, match="1-ROUND"):
                conn.execute(NESTED_TEXT, "one-round")
        data = str(tmp_path / "data")
        save_database(database, data)
        argv = ["query", "--query", NESTED_TEXT, "--data", data]
        with pytest.raises(ValueError, match="1-ROUND"):
            main(argv + ["--strategy", "1-round"])

    def test_every_name_matches_reference_or_raises_value_error(self):
        """Flat and nested fuzz programs: no name gives a wrong answer."""
        names = BSGF_STRATEGIES + SGF_STRATEGIES + (AUTO,)
        kinds = set()
        gumbo = Gumbo(backend="serial")
        for index in range(25):
            case = generate_case(34, index)
            program, database = case.program, case.database
            nested = bool(program.intermediate_names)
            kinds.add(nested)
            specs = sum(len(q.conditional_atoms) for q in program)
            small = len(program) <= MAX_OPTIMAL_SUBQUERIES
            small = small and specs <= MAX_OPTIMAL_SPECS
            reference = evaluate_sgf(program, database)
            for name in names:
                if name in (OPTIMAL, OPTIMAL_SGF) and not small:
                    continue
                try:
                    result = gumbo.execute(program, database, name)
                except ValueError:
                    assert not (nested and name in (SEQ, PAR, GREEDY)), name
                    continue
                assert name != ONE_ROUND or not nested
                for output in program.output_names:
                    assert as_set(result.all_outputs[output]) == as_set(
                        reference[output]
                    ), (case.case_id, name, output)
        assert kinds == {False, True}, "the cases cover flat and nested programs"
