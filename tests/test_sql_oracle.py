"""The SQL answer oracle: a whole-query sqlite3 translation of SGF programs.

``repro.fuzz.sql_oracle`` is the fuzzer's second opinion on *answers*; it
shares no code with the reference evaluator, so the two are pinned against
each other here, statement by statement, on the values and shapes SQL is
worst at: ``-0.0``/``0``, ``1``/``1.0``/``True``, ``None``, mixed-type
columns, empty / missing / wrong-arity relations, repeated variables and
constants, the empty projection, atoms without a join key, duplicated atoms
and outputs feeding later statements.  Also covered: the value-token table,
the NaN skip, and a mutation test — a corrupted *reference* evaluator is
caught by the oracle, shrunk, and replayable from the emitted script.
"""

from __future__ import annotations

import pytest

from repro.fuzz import DifferentialOracle, FuzzOptions, run_fuzz
from repro.fuzz.sql_oracle import SQLOracleUnsupported, sql_answers, token
from repro.model.atoms import Atom
from repro.model.database import Database
from repro.model.relation import Relation
from repro.query.bsgf import BSGFQuery
from repro.query.conditions import Not
from repro.query.parser import parse_sgf
from repro.query.reference import evaluate_sgf, result_sets
from repro.query.sgf import SGFQuery


def database_of(relations) -> Database:
    """``{name: rows}`` or ``{name: (arity, rows)}`` (for empty relations)."""
    database = Database()
    for name, rows in relations.items():
        arity, rows = rows if isinstance(rows, tuple) else (len(rows[0]), rows)
        database.add_relation(Relation.from_tuples(name, rows, arity=arity))
    return database


def assert_agrees(program, database):
    """sqlite3 and the reference evaluator agree on every statement."""
    if isinstance(program, str):
        program = parse_sgf(program)
    expected = result_sets(evaluate_sgf(program, database))
    assert sql_answers(program, database) == expected
    return expected


CASES = {
    "negative-zero": (
        "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(x);",
        {"R": [(-0.0, 1), (0, 2), (0.0, 3), (1, 4)], "S": [(0,)], "T": [(-0.0,)]},
    ),
    "bool-int-float": (
        "Z := SELECT (x, y) FROM R(x, y) WHERE S(x);",
        {"R": [(True, 1), (1.0, 2), (2, 3), (2.5, 4)], "S": [(1,), (2.0,)]},
    ),
    "none-joined-and-negated": (
        "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y);",
        {
            "R": [(None, 1), (None, None), (1, None), (2, 2)],
            "S": [(None,), (2,)],
            "T": [(None,)],
        },
    ),
    "mixed-type-columns": (  # the string "1" must not join the int 1
        "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y);",
        {
            "R": [(1, "a"), (2.5, None), ("s3", 3), (None, "b"), (7, 7.5), ("1", 1)],
            "S": [(1,), ("s3",), (None,), (9,)],
            "T": [("a",), (3,), (None,)],
        },
    ),
    "empty-guard": (
        "Z := SELECT (x, y) FROM R(x, y) WHERE S(x);",
        {"R": (2, []), "S": [(1,)]},
    ),
    "empty-conditional": (
        "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR NOT T(y);",
        {"R": [(1, 2), (3, 4)], "S": (1, []), "T": (1, [])},
    ),
    "missing-guard": ("Z := SELECT (x) FROM Q(x) WHERE S(x);", {"S": [(1,)]}),
    "missing-conditional": (
        "Z := SELECT (x) FROM R(x, y) WHERE NOT Q(x) AND (S(x) OR Q(y));",
        {"R": [(1, 2), (3, 4)], "S": [(1,)]},
    ),
    "wrong-arity-guard": (
        "Z := SELECT (x) FROM R(x) WHERE NOT S(x);",
        {"R": [(1, 2)], "S": [(1,)]},
    ),
    "wrong-arity-conditional": (
        "Z := SELECT (x) FROM R(x, y) WHERE NOT S(x, y) OR S(x, y);",
        {"R": [(1, 2), (3, 4)], "S": [(1,)]},
    ),
    "repeated-variables": (
        "Z := SELECT (x) FROM R(x, x, y) WHERE S(y, y) AND NOT T(x, w, w);",
        {
            "R": [(1, 1, 2), (1.0, True, 3), (1, 2, 2), (4, 4, 5)],
            "S": [(2, 2), (3, 4), (5, 5.0)],
            "T": [(4, 7, 7), (1, 7, 8)],
        },
    ),
    "constants": (
        'Z := SELECT (x) FROM R(x, 1, "a") WHERE S(x, 2.5) OR NOT T("zz", x);',
        {
            "R": [(1, 1, "a"), (2, 1.0, "a"), (3, True, "a"), (4, 1, "b"), (5, "1", "a")],
            "S": [(1, 2.5), (2, 2), (9, 2.5)],
            "T": [("zz", 2), ("zz", 3), ("z", 1)],
        },
    ),
    "never-matching-constant": (
        "Z := SELECT (x) FROM R(x, y) WHERE NOT S(x, 99) AND T(y);"
        "Y := SELECT (x) FROM R(x, 99);",
        {"R": [(1, 2), (3, 4)], "S": [(1, 2)], "T": [(2,), (4,)]},
    ),
    "no-shared-variable": (
        "Z := SELECT (x) FROM R(x) WHERE S(w, 3);"
        "Y := SELECT (x) FROM R(x) WHERE S(w, 4);",
        {"R": [(1,), (2,)], "S": [(7, 3), (8, 5)]},
    ),
    "duplicated-atoms-under-or-not": (
        "Z := SELECT (x) FROM R(x, y) WHERE (S(x) OR NOT S(x)) AND NOT (S(y) AND S(y));"
        "Y := SELECT (y) FROM R(x, y) WHERE NOT (NOT S(x) OR NOT NOT T(y)) OR S(x);",
        {"R": [(1, 2), (2, 3), (3, 1)], "S": [(1,), (2,)], "T": [(3,)]},
    ),
    "three-level-chain": (
        "A := SELECT (x, y) FROM R(x, y) WHERE S(x);"
        "B := SELECT (y, x) FROM A(x, y) WHERE NOT T(y);"
        "C := SELECT (x) FROM R(x, y) WHERE B(y, x) AND NOT A(y, x);",
        {
            "R": [(1, 2), (2, 1), (3, 4), (5, None)],
            "S": [(1,), (2,), (5,)],
            "T": [(1,), (4,)],
        },
    ),
    "duplicated-reordered-projection": (
        "Z := SELECT (y, x, y) FROM R(x, y) WHERE S(x);",
        {"R": [(1, 2), (1.0, 2.0), (3, 4)], "S": [(1,)]},
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_sqlite_agrees_with_the_reference_evaluator(case):
    text, relations = CASES[case]
    expected = assert_agrees(text, database_of(relations))
    if case.endswith("-guard"):
        assert expected == {"Z": frozenset()}
    else:  # no case is vacuous: something is selected somewhere
        assert any(expected.values())


def test_empty_projection_keeps_the_first_guard_field():
    """``SELECT ()`` is not concrete syntax; the evaluator emits ``(row[0],)``."""
    statement = BSGFQuery("Z", (), Atom.of("R", "x", "y"), parse_sgf(
        "Q := SELECT (x) FROM R(x, y) WHERE S(y);"
    )[0].condition)
    database = database_of({"R": [(1, 2), (1.0, 3), (4, 2)], "S": [(2,)]})
    assert assert_agrees(SGFQuery([statement]), database) == {
        "Z": frozenset({(1,), (4,)})
    }


def test_an_output_shadows_a_base_relation_of_the_same_name():
    program = parse_sgf(
        "S := SELECT (x) FROM R(x, y) WHERE T(y);"
        "Z := SELECT (y) FROM R(x, y) WHERE S(x);"
    )
    database = database_of({"R": [(1, 2), (3, 4)], "S": [(3,)], "T": [(2,)]})
    assert assert_agrees(program, database) == {
        "S": frozenset({(1,)}),
        "Z": frozenset({(2,)}),
    }


def test_values_never_round_trip_through_sqlite():
    """Outputs are the original Python objects, projected by row position."""
    marker = 1.0
    database = database_of({"R": [(marker, "a")], "S": [(True,)]})
    answers = sql_answers(parse_sgf("Z := SELECT (x) FROM R(x, y) WHERE S(x);"), database)
    ((value,),) = answers["Z"]
    assert value is marker


class TestTokens:
    def test_token_equality_is_python_equality(self):
        assert token(None) == "N"
        assert token(True) == token(1) == token(1.0) == "i1"
        assert token(False) == token(0) == token(-0.0) == "i0"
        assert token(2.5) == "f2.5"
        assert token(1e300) == token(int(1e300))
        assert token(float("inf")) != token(float("-inf"))
        assert token("x") == "sx"
        assert token("1") != token(1)
        assert token("N") != token(None)

    def test_values_without_a_token_raise(self):
        for value in (float("nan"), "\ud800", (1, 2), object(), 1 + 2j):
            with pytest.raises(SQLOracleUnsupported):
                token(value)


def test_nan_skips_the_second_opinion_and_is_counted():
    """The evaluator joins NaN by identity; SQL would report a false alarm."""
    nan = float("nan")
    program = parse_sgf("Z := SELECT (x, y) FROM R(x, y) WHERE S(x);")
    database = database_of({"R": [(nan, 1), (2.0, 3)], "S": [(nan,), (2.0,)]})
    with pytest.raises(SQLOracleUnsupported):
        sql_answers(program, database)
    constant = parse_sgf("Z := SELECT (x) FROM R(x, y) WHERE S(x);")
    with DifferentialOracle(backends=("serial",)) as oracle:
        assert oracle.check(program, database) == []
        assert oracle.sql_skipped == 1
        assert oracle.check(constant, database_of({"R": [(1, 2)], "S": [(1,)]})) == []
        assert oracle.sql_skipped == 1
    report = run_fuzz(FuzzOptions(seed=1, iterations=3, backends=("serial",)))
    assert report.sql_skipped == 0
    assert "sql_skipped:            0" in report.format()


def test_corrupted_reference_evaluator_is_caught_shrunk_and_replayable(
    monkeypatch, capsys
):
    """Mutation test: ``NOT c`` evaluating to ``c`` corrupts the reference
    evaluator (and the interpreted EVAL jobs with it, which therefore agree
    with the wrong answer); the SQL oracle never calls ``evaluate``."""
    monkeypatch.setattr(
        Not, "evaluate", lambda self, assignment: self.operand.evaluate(assignment)
    )
    report = run_fuzz(FuzzOptions(seed=2, iterations=40, backends=("serial",)))
    assert not report.ok, "the corrupted reference evaluator was not detected"
    counterexample = report.counterexamples[0]
    assert counterexample.divergences[0].kind == "reference"
    assert counterexample.shrunk_divergences[0].kind == "reference"
    # Shrunk to the minimal shape: one statement negating one atom, one row.
    assert len(counterexample.program) == 1
    condition = counterexample.program[0].condition
    assert isinstance(condition, Not) and not condition.operand.uses_negation()
    assert len(counterexample.program[0].conditional_atoms) == 1
    assert sum(len(relation) for relation in counterexample.database) == 1

    capsys.readouterr()
    exec(compile(counterexample.script(), "counterexample.py", "exec"), {})
    assert "[reference]" in capsys.readouterr().out
    monkeypatch.undo()
    exec(compile(counterexample.script(), "counterexample.py", "exec"), {})
    assert "no divergence reproduced" in capsys.readouterr().out
