"""Shared fixtures and small databases used across the test suite."""

from __future__ import annotations

from repro.cost.constants import HadoopSettings
from repro.mapreduce.engine import MapReduceEngine
from repro.model.database import Database
from repro.model.terms import Variable
from repro.query.bsgf import BSGFQuery
from repro.query.parser import parse_bsgf, parse_sgf
from repro.workloads.scaling import ScaledEnvironment

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")


def small_database() -> Database:
    """A tiny database exercising matches, non-matches and negation."""
    return Database.from_dict(
        {
            "R": [(1, 2), (3, 4), (5, 6), (7, 8)],
            "S": [(1,), (5,), (9,)],
            "T": [(4,), (6,)],
            "U": [(7,), (1,)],
        }
    )


def star_database() -> Database:
    """A 4-ary guard with four unary conditionals (the A-query shape)."""
    return Database.from_dict(
        {
            "R": [
                (1, 2, 3, 4),
                (1, 1, 1, 1),
                (5, 6, 7, 8),
                (2, 4, 6, 8),
                (9, 9, 9, 9),
            ],
            "S": [(1,), (2,), (5,)],
            "T": [(2,), (6,), (9,)],
            "U": [(3,), (7,), (6,)],
            "V": [(4,), (8,), (9,)],
        }
    )


def simple_query() -> BSGFQuery:
    """``Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y)``."""
    return parse_bsgf("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y);")


def disjunctive_query() -> BSGFQuery:
    """``Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR T(y)``."""
    return parse_bsgf("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR T(y);")


def star_query() -> BSGFQuery:
    """The A1-shaped query over the star database."""
    return parse_bsgf(
        "OUT := SELECT (x, y, z, w) FROM R(x, y, z, w) "
        "WHERE S(x) AND T(y) AND U(z) AND V(w);"
    )


def shared_key_query() -> BSGFQuery:
    """The A3-shaped query (all conditionals on x) over the star database."""
    return parse_bsgf(
        "OUT := SELECT (x, y, z, w) FROM R(x, y, z, w) "
        "WHERE S(x) AND T(x) AND U(x) AND V(x);"
    )


def nested_sgf_text() -> str:
    return """
    Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x);
    Z2 := SELECT (x, y) FROM Z1(x, y) WHERE T(y);
    Z3 := SELECT (x, y) FROM R(x, y) WHERE U(x) AND NOT Z2(x, y);
    """


def nested_sgf():
    return parse_sgf(nested_sgf_text(), name="nested")


def as_set(relation) -> frozenset:
    """Tuples of a relation as a frozenset for comparisons."""
    return frozenset(relation.tuples())


def tiny_split_engine(split_bytes: int = 420) -> MapReduceEngine:
    """An engine whose input split is *split_bytes* (the paper's is 128 MB).

    At the default a 150-row 4-ary guard is 15 map chunks and a unary
    conditional four, so chunks land on both worker shards; the
    per-reducer allowances shrink by the same factor, so jobs also spread
    over several reducers.
    """
    paper_split_bytes = HadoopSettings.paper_values().split_mb * 1024 * 1024
    return ScaledEnvironment(scale=split_bytes / paper_split_bytes).engine()


def assert_same_run(expected, got, context=""):
    """The parity contract: the same output relations, then ``metrics ==``.

    *expected* and *got* are two results of one kind (``Gumbo.execute``,
    ``execute_dynamic``, a backend's ``run_program`` or ``run_job``).  Metric
    equality compares every simulated field of every job and ignores only
    the wall clock.
    """
    outputs = [
        getattr(result, "all_outputs", result.outputs) for result in (expected, got)
    ]
    assert set(outputs[0]) == set(outputs[1]), context
    for name, relation in outputs[0].items():
        assert relation.tuples() == outputs[1][name].tuples(), f"{context}:{name}"
    assert expected.metrics == got.metrics, context
