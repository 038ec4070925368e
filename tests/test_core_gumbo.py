"""Tests for the Gumbo facade (planning + execution + metrics)."""

import pytest

from repro.core.gumbo import Gumbo
from repro.core.options import GumboOptions
from repro.cost.models import GumboCostModel, WangCostModel
from repro.mapreduce.engine import MapReduceEngine
from repro.query.parser import parse_bsgf
from repro.query.reference import evaluate_bsgf, evaluate_sgf
from repro.query.sgf import SGFQuery

from helpers import (
    as_set,
    nested_sgf,
    nested_sgf_text,
    shared_key_query,
    simple_query,
    small_database,
    star_database,
    star_query,
)


@pytest.fixture
def gumbo():
    return Gumbo()


class TestQueryNormalisation:
    def test_accepts_text(self, gumbo):
        sgf = gumbo.as_sgf("Z := SELECT x FROM R(x, y) WHERE S(x);")
        assert isinstance(sgf, SGFQuery)
        assert sgf.output == "Z"

    def test_accepts_bsgf_object(self, gumbo):
        sgf = gumbo.as_sgf(simple_query())
        assert sgf.is_basic()

    def test_accepts_list_of_queries(self, gumbo):
        q1 = parse_bsgf("Z1 := SELECT x FROM R(x, y) WHERE S(x);")
        q2 = parse_bsgf("Z2 := SELECT x FROM R(x, y) WHERE T(y);")
        sgf = gumbo.as_sgf([q1, q2])
        assert sgf.output_names == ("Z1", "Z2")

    def test_accepts_sgf_object(self, gumbo):
        query = nested_sgf()
        assert gumbo.as_sgf(query) is query


class TestExecution:
    @pytest.mark.parametrize("strategy", ["seq", "par", "greedy"])
    def test_bsgf_execution_matches_reference(self, gumbo, strategy):
        db = small_database()
        query = simple_query()
        result = gumbo.execute(query, db, strategy)
        assert as_set(result.output()) == as_set(evaluate_bsgf(query, db))

    def test_one_round_execution(self, gumbo):
        db = star_database()
        query = shared_key_query()
        result = gumbo.execute(query, db, "1-round")
        assert as_set(result.output()) == as_set(evaluate_bsgf(query, db))
        assert result.metrics.rounds == 1

    def test_text_query_execution(self, gumbo):
        db = small_database()
        result = gumbo.execute(
            "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR U(x);", db
        )
        query = parse_bsgf("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR U(x);")
        assert as_set(result.output()) == as_set(evaluate_bsgf(query, db))

    def test_nested_sgf_execution(self, gumbo):
        db = small_database()
        query = nested_sgf()
        result = gumbo.execute(query, db, "greedy-sgf")
        reference = evaluate_sgf(query, db)
        assert as_set(result.output()) == as_set(reference[query.output])

    def test_bsgf_strategy_names_map_to_sgf_for_nested_queries(self, gumbo):
        db = small_database()
        result = gumbo.execute(nested_sgf_text(), db, "greedy")
        assert result.strategy == "greedy-sgf"
        result_par = gumbo.execute(nested_sgf_text(), db, "par")
        assert result_par.strategy == "parunit"
        result_seq = gumbo.execute(nested_sgf_text(), db, "seq")
        assert result_seq.strategy == "sequnit"

    def test_flat_query_keeps_bsgf_strategy(self, gumbo):
        db = small_database()
        result = gumbo.execute(simple_query(), db, "greedy")
        assert result.strategy == "greedy"

    def test_outputs_only_contain_roots(self, gumbo):
        db = small_database()
        result = gumbo.execute(nested_sgf(), db)
        assert set(result.outputs) == {"Z3"}
        assert set(result.all_outputs) == {"Z1", "Z2", "Z3"}

    def test_result_metrics_and_summary(self, gumbo):
        db = small_database()
        result = gumbo.execute(simple_query(), db)
        summary = result.summary()
        assert set(summary) == {
            "net_time_s",
            "total_time_s",
            "input_gb",
            "communication_gb",
        }
        assert result.metrics.net_time > 0
        assert result.metrics.total_time >= result.metrics.net_time

    def test_compare_strategies(self, gumbo):
        db = star_database()
        results = [
            gumbo.execute(star_query(), db, strategy)
            for strategy in ("seq", "par", "greedy")
        ]
        assert [r.strategy for r in results] == ["seq", "par", "greedy"]
        answers = {as_set(r.output()) for r in results}
        assert len(answers) == 1


class TestConfiguration:
    def test_cost_model_by_name(self):
        assert isinstance(Gumbo(cost_model="wang").cost_model, WangCostModel)
        assert isinstance(Gumbo(cost_model="gumbo").cost_model, GumboCostModel)

    def test_cost_model_instance(self):
        model = WangCostModel()
        assert Gumbo(cost_model=model).cost_model is model

    def test_custom_engine_used(self):
        engine = MapReduceEngine()
        gumbo = Gumbo(engine=engine)
        assert gumbo.engine is engine

    def test_plan_only(self):
        gumbo = Gumbo()
        db = star_database()
        planned = gumbo.plan_with(star_query(), db, "par")
        assert planned.strategy == "par" and planned.choice is None
        assert len(planned.program) == 5

    def test_options_propagate_to_plan(self):
        db = star_database()
        no_packing = Gumbo(options=GumboOptions(message_packing=False))
        program = no_packing.plan_with(shared_key_query(), db, "par").program
        for job in program.jobs:
            if hasattr(job, "uses_combiner") and job.job_id.startswith("msj"):
                assert not job.uses_combiner()

    def test_docstring_example(self):
        from repro import Database

        db = Database.from_dict({"R": [(1, 2), (3, 4)], "S": [(1,)], "T": [(4,)]})
        result = Gumbo().execute(
            "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR T(y);", db
        )
        assert sorted(result.output().tuples()) == [(1, 2), (3, 4)]
