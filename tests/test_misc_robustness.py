"""Miscellaneous robustness tests: determinism, strategy resolution, reporting edges."""

import pytest

from repro.core.gumbo import Gumbo
from repro.experiments.costmodel import ranking_accuracy
from repro.experiments.report import format_table, relative_table
from repro.experiments.runner import RunRecord
from repro.mapreduce.engine import MapReduceEngine
from repro.query.parser import parse_bsgf
from repro.query.reference import evaluate_bsgf
from repro.workloads.queries import bsgf_query_set, database_for
from repro.workloads.scaling import ScaledEnvironment

from helpers import (
    as_set,
    assert_same_run,
    simple_query,
    small_database,
    star_database,
    star_query,
)


class TestDeterminism:
    def test_engine_metrics_are_deterministic(self):
        """Two runs of the same program yield byte-for-byte identical metrics."""
        queries = bsgf_query_set("A1")
        db = database_for(queries, guard_tuples=120, selectivity=0.5, seed=31)
        gumbo = Gumbo()
        first = gumbo.execute(queries, db, "greedy")
        second = gumbo.execute(queries, db, "greedy")
        assert_same_run(first, second)

    def test_workload_generation_is_seeded(self):
        queries = bsgf_query_set("A3")
        a = database_for(queries, guard_tuples=100, seed=5)
        b = database_for(queries, guard_tuples=100, seed=5)
        assert a["R"].tuples() == b["R"].tuples()
        assert a["S"].tuples() == b["S"].tuples()

    def test_plans_are_deterministic(self):
        db = star_database()
        gumbo = Gumbo()
        first = gumbo.plan_with(star_query(), db, "greedy").program
        second = gumbo.plan_with(star_query(), db, "greedy").program
        assert sorted(j.job_id for j in first.jobs) == sorted(
            j.job_id for j in second.jobs
        )
        assert first.rounds() == second.rounds()


class TestStrategyResolution:
    def test_sgf_strategy_on_basic_query(self):
        """SGF-level strategies also accept single (basic) queries."""
        db = small_database()
        query = simple_query()
        result = Gumbo().execute(query, db, "greedy-sgf")
        assert as_set(result.output()) == as_set(evaluate_bsgf(query, db))
        assert result.strategy == "greedy-sgf"

    def test_parunit_on_basic_query(self):
        db = small_database()
        query = simple_query()
        result = Gumbo().execute(query, db, "parunit")
        assert as_set(result.output()) == as_set(evaluate_bsgf(query, db))

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError):
            Gumbo().execute(simple_query(), small_database(), "quantum")


class TestRankingAccuracyExperiment:
    def test_ranking_accuracy_returns_fraction(self):
        env = ScaledEnvironment(scale=5e-7)
        accuracy, candidates = ranking_accuracy(
            env, query_ids=("A1",), max_group_size=1
        )
        assert set(accuracy) == {"gumbo", "wang"}
        assert candidates == 4
        for value in accuracy.values():
            assert 0.0 <= value <= 1.0


class TestReportingEdges:
    def test_relative_table_skips_queries_without_baseline(self):
        records = [RunRecord("Q", "PAR", 1.0, 1.0, 1.0, 1.0, 1, 1)]
        text = relative_table(records, "seq")
        assert "(no data)" in text

    def test_format_table_handles_heterogeneous_rows(self):
        text = format_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text

    def test_run_record_extra_fields_in_dict(self):
        record = RunRecord("Q", "SEQ", 1.0, 2.0, 3.0, 4.0, 1, 1, extra={"nodes": 5.0})
        assert record.as_dict()["nodes"] == 5.0


class TestQueryEdgeCases:
    def test_constant_only_conditional(self):
        """A conditional atom with only constants acts as an existence test."""
        from repro.model.database import Database

        db = Database.from_dict({"R": [(1,), (2,)], "Flag": [("on",)]})
        query = parse_bsgf('Z := SELECT x FROM R(x) WHERE Flag("on");')
        result = Gumbo().execute(query, db, "par")
        assert as_set(result.output()) == as_set(evaluate_bsgf(query, db)) == {
            (1,), (2,)
        }

        db_without = Database.from_dict({"R": [(1,), (2,)], "Flag": [("off",)]})
        result_without = Gumbo().execute(query, db_without, "par")
        assert as_set(result_without.output()) == frozenset()

    def test_numeric_constants_in_guard_and_condition(self):
        from repro.model.database import Database

        db = Database.from_dict({"R": [(1, 2.5), (1, 3.0)], "S": [(2.5,)]})
        query = parse_bsgf("Z := SELECT y FROM R(1, y) WHERE S(y);")
        result = Gumbo().execute(query, db, "greedy")
        assert as_set(result.output()) == {(2.5,)}

    def test_identifiers_with_digits_and_underscores(self):
        from repro.model.database import Database

        db = Database.from_dict({"Rel_1": [(1, 1)], "S2": [(1,)]})
        query = parse_bsgf(
            "Out_1 := SELECT (col_a, col_b) FROM Rel_1(col_a, col_b) "
            "WHERE S2(col_a);"
        )
        result = Gumbo().execute(query, db, "seq")
        assert as_set(result.output("Out_1")) == {(1, 1)}

    def test_empty_guard_relation(self):
        from repro.model.database import Database

        db = Database.from_dict({"S": [(1,)]})
        db.ensure_relation("R", 2)
        query = parse_bsgf("Z := SELECT (x, y) FROM R(x, y) WHERE S(x);")
        for strategy in ("seq", "par", "greedy"):
            result = Gumbo().execute(query, db, strategy)
            assert len(result.output()) == 0

    def test_engine_handles_large_key_groups(self):
        """Many tuples sharing one key exercise a single big reduce group."""
        from repro.model.database import Database

        rows = [(1, i) for i in range(500)]
        db = Database.from_dict({"R": rows, "S": [(1,)]})
        query = parse_bsgf("Z := SELECT (x, y) FROM R(x, y) WHERE S(x);")
        program = Gumbo().plan_with(query, db, "1-round").program
        result = MapReduceEngine().run_program(program, db)
        assert len(result.outputs["Z"]) == 500
