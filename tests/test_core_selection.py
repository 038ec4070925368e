"""The reduce rule the semi-join jobs share (:mod:`repro.core.selection`).

Every reducer keeps a guard row when φ holds over its memberships and
projects it onto the SELECT list.  Two corners of that rule get no coverage
from the fuzzer, which never draws an empty SELECT list: the 0-ary output
(``SELECT ()`` yields the guard row's first field) and guard rows that are a
member of no conditional at all (membership mask 0).  Here every job path —
each applicable strategy plus AUTO in both kernel modes, standalone MSJ
(Algorithm 1, for the one-atom condition), the three Pig/Hive baselines,
and a materialization with one refresh — must answer as the
reference evaluator does, with and without a projection, on a database
whose conditionals match some guard rows and on one where they match none.
"""

from __future__ import annotations

import pickle

import pytest

from repro import Database, Gumbo
from repro.baselines.plans import BASELINE_STRATEGIES, build_baseline_program
from repro.core.msj import multi_semi_join
from repro.core.options import GumboOptions
from repro.core.selection import Selection
from repro.core.strategies import AUTO, applicable_strategies
from repro.incremental import apply_inserts, dedupe_inserts
from repro.mapreduce.engine import MapReduceEngine
from repro.model.atoms import Atom
from repro.query.bsgf import BSGFQuery
from repro.query.conditions import AtomCondition
from repro.query.parser import parse_bsgf
from repro.query.reference import evaluate_sgf

CONDITIONS = (
    "S(y)",
    "NOT S(y)",
    "NOT S(y) OR NOT T(x)",
    "(S(y) AND T(x)) OR NOT S(x)",
)

GUARD = [(1, 2), (2, 3), (3, 4), (4, 1), (5, 5), (6, 2)]
DATABASES = {
    "some-match": {"R": GUARD, "S": [(2,), (3,), (5,)], "T": [(1,), (4,), (5,)]},
    "none-match": {"R": GUARD, "S": [(70,)], "T": [(80,)]},
}
#: One refresh: a guard row and conditional facts that flip some rows.
INSERTS = {"R": [(7, 3), (8, 8)], "S": [(4,), (8,)], "T": [(2,)]}


def _query(condition: str, projected: bool) -> BSGFQuery:
    query = parse_bsgf(f"Z := SELECT (x, y) FROM R(x, y) WHERE {condition};")
    projection = query.projection if projected else ()
    return BSGFQuery("Z", projection, query.guard, query.condition)


def _expected(query: BSGFQuery, database: Database) -> frozenset:
    return frozenset(evaluate_sgf(Gumbo.as_sgf(query), database)["Z"].tuples())


@pytest.mark.parametrize("db_name", sorted(DATABASES))
@pytest.mark.parametrize("projected", [True, False], ids=["select-xy", "select-()"])
@pytest.mark.parametrize("condition", CONDITIONS)
def test_every_job_path_matches_the_reference(condition, projected, db_name):
    query = _query(condition, projected)
    database = Database.from_dict(DATABASES[db_name])
    expected = _expected(query, database)
    if not projected:
        assert all(len(row) == 1 for row in expected)

    strategies = applicable_strategies(Gumbo.as_sgf(query)) + [AUTO]
    for strategy in strategies:
        for mode in ("auto", "off"):
            gumbo = Gumbo(options=GumboOptions(kernel_mode=mode))
            result = gumbo.execute(query, database, strategy)
            assert frozenset(result.output().tuples()) == expected, (strategy, mode)

    if isinstance(query.condition, AtomCondition):
        # One semi-join: Algorithm 1's standalone MSJ outputs the answer.
        (spec,) = query.semijoin_specs()
        for mode in ("auto", "off"):
            options = GumboOptions(kernel_mode=mode)
            outputs = multi_semi_join([spec], database, options=options)
            assert frozenset(outputs[spec.output].tuples()) == expected, mode

    for strategy in BASELINE_STRATEGIES:
        program = build_baseline_program([query], strategy)
        outputs = MapReduceEngine().run_program(program, database).outputs
        assert frozenset(outputs["Z"].tuples()) == expected, strategy

    with Gumbo() as gumbo:
        materialization = gumbo.materialize(query, database.copy(), None)
        assert materialization.answers()["Z"] == expected
        gumbo.execute_delta(materialization, INSERTS)
    mutated = database.copy()
    apply_inserts(mutated, dedupe_inserts(mutated, INSERTS))
    assert materialization.answers()["Z"] == _expected(query, mutated)


class TestSelection:
    def test_single_literals_filter_directly_and_the_rest_by_masks(self):
        for condition, literal in (("S(y)", (0, True)), ("NOT S(y)", (0, False))):
            selection = Selection.of_query(_query(condition, True), [0])
            assert selection._literal == literal
        assert Selection.of_query(_query(CONDITIONS[2], True), [0, 1])._literal is None

    def test_masks_include_zero_exactly_when_phi_holds_without_members(self):
        selection = Selection.of_query(_query("NOT S(y) OR NOT T(x)", True), "st")
        masks, accepted = selection.masks({"s": {1, 2}, "t": {2, 3}}, {1, 2, 3, 4})
        assert dict(masks) == {1: 0b01, 2: 0b11, 3: 0b10}
        assert accepted == {0, 0b01, 0b10}
        selection = Selection.of_query(_query("S(y)", True), "s")
        assert selection.masks({}, {1})[1] == set()

    def test_select_and_project_agree_with_the_interpreted_rule(self):
        selection = Selection.of_query(_query("NOT S(y) OR NOT T(x)", False), "ab")
        rows = [(1, 10), (2, 20), (3, 30)]
        sets = {"a": {1, 2}, "b": {2}}
        sink: set = set()
        selection.select(sets, [([1, 2, 3], rows)], sink)
        interpreted = {
            selection.project(row)
            for key, row in zip([1, 2, 3], rows)
            if selection.holds({slot for slot, keys in sets.items() if key in keys})
        }
        assert sink == interpreted == {(1,), (3,)}

    def test_selection_survives_pickling(self):
        """Jobs carry their selections to the worker processes."""
        condition = parse_bsgf("Z := SELECT x FROM R(x) WHERE S(x);").condition
        slots = [(Atom.of("S", "x"), 0)]
        selection = Selection("X", condition, slots, Atom.of("R", "x"), ())
        clone = pickle.loads(pickle.dumps(selection))
        assert (clone.output, clone.slots, clone.positions) == ("X", dict(slots), (0,))
        assert clone.holds({0}) and not clone.holds(set())
