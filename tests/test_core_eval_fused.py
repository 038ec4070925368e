"""Unit tests for the EVAL job and the fused 1-ROUND job."""

import pytest

from repro.core.eval_job import EvalJob, EvalTarget
from repro.core.fused import (
    FusedOneRoundJob,
    OneRoundNotApplicableError,
    one_round_applicable,
)
from repro.core.options import GumboOptions
from repro.core.plan import build_two_round_program
from repro.mapreduce.engine import MapReduceEngine
from repro.model.database import Database
from repro.query.parser import parse_bsgf
from repro.query.reference import evaluate_bsgf

from helpers import (
    as_set,
    disjunctive_query,
    shared_key_query,
    simple_query,
    small_database,
    star_database,
    star_query,
)


@pytest.fixture
def engine():
    return MapReduceEngine()


class TestEvalTarget:
    def test_requires_one_intermediate_per_atom(self):
        query = simple_query()
        with pytest.raises(ValueError):
            EvalTarget(query, ("only-one",))

    def test_properties(self):
        query = simple_query()
        target = EvalTarget(query, ("Z#0", "Z#1"))
        assert target.output == "Z"
        assert target.guard.relation == "R"


class TestEvalJobValidation:
    def test_needs_targets(self):
        with pytest.raises(ValueError):
            EvalJob("eval", [])

    def test_duplicate_outputs_rejected(self):
        query = simple_query()
        with pytest.raises(ValueError):
            EvalJob(
                "eval",
                [EvalTarget(query, ("A", "B")), EvalTarget(query, ("C", "D"))],
            )

    def test_shared_intermediate_names_rejected(self):
        q1 = simple_query()
        q2 = q1.rename_output("Z2")
        with pytest.raises(ValueError):
            EvalJob("eval", [EvalTarget(q1, ("A", "B")), EvalTarget(q2, ("A", "C"))])

    def test_input_relations(self):
        query = simple_query()
        job = EvalJob("eval", [EvalTarget(query, ("Z#0", "Z#1"))])
        assert list(job.input_relations()) == ["R", "Z#0", "Z#1"]
        assert job.output_schema() == {"Z": 2}


class TestTwoRoundCorrectness:
    """MSJ + EVAL programs must agree with the reference evaluator."""

    @pytest.mark.parametrize(
        "query_factory, db_factory",
        [
            (simple_query, small_database),
            (disjunctive_query, small_database),
            (star_query, star_database),
            (shared_key_query, star_database),
        ],
    )
    def test_matches_reference(self, engine, query_factory, db_factory):
        query = query_factory()
        db = db_factory()
        specs = query.semijoin_specs()
        program = build_two_round_program([query], [[s] for s in specs])
        result = engine.run_program(program, db)
        assert as_set(result.outputs[query.output]) == as_set(evaluate_bsgf(query, db))

    def test_grouped_partition_gives_same_answer(self, engine):
        query = star_query()
        db = star_database()
        specs = query.semijoin_specs()
        grouped = build_two_round_program([query], [specs])
        singleton = build_two_round_program([query], [[s] for s in specs])
        grouped_out = engine.run_program(grouped, db).outputs[query.output]
        singleton_out = engine.run_program(singleton, db).outputs[query.output]
        assert as_set(grouped_out) == as_set(singleton_out)

    def test_negation_handled(self, engine):
        db = small_database()
        query = parse_bsgf("Z := SELECT (x, y) FROM R(x, y) WHERE NOT S(x);")
        program = build_two_round_program(
            [query], [[s] for s in query.semijoin_specs()]
        )
        result = engine.run_program(program, db)
        assert as_set(result.outputs["Z"]) == as_set(evaluate_bsgf(query, db))

    def test_query_without_condition(self, engine):
        db = small_database()
        query = parse_bsgf("Z := SELECT x FROM R(x, y);")
        program = build_two_round_program([query], [])
        result = engine.run_program(program, db)
        assert as_set(result.outputs["Z"]) == as_set(evaluate_bsgf(query, db))

    def test_multiple_queries_in_one_eval(self, engine):
        db = small_database()
        q1 = parse_bsgf("Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x);")
        q2 = parse_bsgf("Z2 := SELECT (x, y) FROM R(x, y) WHERE NOT T(y);")
        specs = [s for q in (q1, q2) for s in q.semijoin_specs()]
        program = build_two_round_program([q1, q2], [[s] for s in specs])
        result = engine.run_program(program, db)
        assert as_set(result.outputs["Z1"]) == as_set(evaluate_bsgf(q1, db))
        assert as_set(result.outputs["Z2"]) == as_set(evaluate_bsgf(q2, db))

    def test_per_fact_combination_is_correct(self, engine):
        """Two guard facts sharing a projection must not be conflated.

        R(1, 10) satisfies only S, R(1, 20) satisfies only T; with projection
        on x alone, (1,) must NOT be in the answer of S(x') AND T(y') style
        conditions that no single fact satisfies.
        """
        db = Database.from_dict({"R": [(1, 10), (1, 20)], "S": [(10,)], "T": [(20,)]})
        query = parse_bsgf("Z := SELECT x FROM R(x, y) WHERE S(y) AND T(y);")
        program = build_two_round_program(
            [query], [[s] for s in query.semijoin_specs()]
        )
        result = engine.run_program(program, db)
        expected = as_set(evaluate_bsgf(query, db))
        assert as_set(result.outputs["Z"]) == expected == frozenset()


class TestEvalRepresentatives:
    """EVAL keeps guard rows: an intermediate's equal-but-not-identical row
    decides membership but is never what the job outputs."""

    @pytest.mark.parametrize("kernel_mode", ["auto", "off"])
    def test_guard_row_wins_over_an_equal_member(self, kernel_mode):
        query = parse_bsgf("Z := SELECT (x, y) FROM R(x, y) WHERE S(x);")
        job = EvalJob(
            "eval",
            [EvalTarget(query, ("X0",))],
            GumboOptions(kernel_mode=kernel_mode),
        )
        db = Database.from_dict(
            {"R": [(1, "a"), (2, "b"), (3, "c")], "X0": [(1.0, "a")]}
        )
        (row,) = MapReduceEngine().run_job(job, db).outputs["Z"].tuples()
        assert row == (1, "a") and type(row[0]) is int


class TestEvalByteAccounting:
    def test_tuple_reference_shrinks_keys(self):
        query = star_query()
        target = EvalTarget(query, tuple(s.output for s in query.semijoin_specs()))
        with_ref = EvalJob("a", [target], GumboOptions(tuple_reference=True))
        without_ref = EvalJob("b", [target], GumboOptions(tuple_reference=False))
        key = (0, 1, 2, 3, 4)
        assert with_ref.key_bytes(key) < without_ref.key_bytes(key)


class TestOneRoundApplicability:
    def test_shared_key_applicable(self):
        assert one_round_applicable(shared_key_query())

    def test_star_query_not_applicable(self):
        assert not one_round_applicable(star_query())

    def test_no_condition_applicable(self):
        assert one_round_applicable(parse_bsgf("Z := SELECT x FROM R(x, y);"))

    def test_constructor_rejects_inapplicable_query(self):
        with pytest.raises(OneRoundNotApplicableError):
            FusedOneRoundJob("fused", [star_query()])

    def test_needs_queries(self):
        with pytest.raises(ValueError):
            FusedOneRoundJob("fused", [])

    def test_duplicate_outputs_rejected(self):
        query = shared_key_query()
        with pytest.raises(ValueError):
            FusedOneRoundJob("fused", [query, query])


class TestOneRoundCorrectness:
    def test_matches_reference(self, engine):
        query = shared_key_query()
        db = star_database()
        result = engine.run_job(FusedOneRoundJob("fused", [query]), db)
        assert as_set(result.outputs[query.output]) == as_set(evaluate_bsgf(query, db))

    def test_uniqueness_style_query(self, engine):
        db = star_database()
        query = parse_bsgf(
            "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) "
            "WHERE (S(x) AND NOT T(x)) OR (NOT S(x) AND T(x));"
        )
        result = engine.run_job(FusedOneRoundJob("fused", [query]), db)
        assert as_set(result.outputs["Z"]) == as_set(evaluate_bsgf(query, db))

    def test_negation_only_query(self, engine):
        db = star_database()
        query = parse_bsgf(
            "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE NOT S(x);"
        )
        result = engine.run_job(FusedOneRoundJob("fused", [query]), db)
        assert as_set(result.outputs["Z"]) == as_set(evaluate_bsgf(query, db))

    def test_multiple_queries_in_one_fused_job(self, engine):
        db = star_database()
        q1 = parse_bsgf(
            "Z1 := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE S(x) AND T(x);"
        )
        q2 = parse_bsgf(
            "Z2 := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE U(y) OR V(y);"
        )
        result = engine.run_job(FusedOneRoundJob("fused", [q1, q2]), db)
        assert as_set(result.outputs["Z1"]) == as_set(evaluate_bsgf(q1, db))
        assert as_set(result.outputs["Z2"]) == as_set(evaluate_bsgf(q2, db))

    def test_one_round_uses_single_job(self, engine):
        query = shared_key_query()
        db = star_database()
        msj_eval = build_two_round_program(
            [query], [[s] for s in query.semijoin_specs()]
        )
        one_round = engine.run_job(FusedOneRoundJob("fused", [query]), db)
        two_round = engine.run_program(msj_eval, db)
        # Same answers, but strictly less HDFS input (single pass over data).
        assert as_set(one_round.outputs[query.output]) == as_set(
            two_round.outputs[query.output]
        )
        assert one_round.metrics.input_mb < two_round.metrics.input_mb
