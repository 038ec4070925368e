"""The reduce rule the semi-join jobs share (:mod:`repro.core.selection`).

Every reducer keeps a guard row when φ holds over its memberships and
projects it onto the SELECT list.  Two corners of that rule get no coverage
from the fuzzer, which never draws an empty SELECT list: the 0-ary output
(``SELECT ()`` yields the guard row's first field) and guard rows that are a
member of no conditional at all (a key in no member set).  Here every job
path —
each applicable strategy plus AUTO in both kernel modes, standalone MSJ
(Algorithm 1, for the one-atom condition), the three Pig/Hive baselines,
and a materialization with one refresh — must answer as the
reference evaluator does, with and without a projection, on a database
whose conditionals match some guard rows and on one where they match none.
"""

from __future__ import annotations

import pickle
from functools import lru_cache

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
from repro.query.conditions import TRUE, And, AtomCondition, Not, Or
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
    def test_members_is_phi_over_whole_key_sets(self):
        """φ holds for a key exactly when its membership in S differs from
        the negated flag; a key in no set (mask 0) is kept only when negated."""
        sets = {"s": {1, 2}, "t": {2, 3}}
        selection = Selection.of_query(_query("NOT S(y) OR NOT T(x)", True), "st")
        assert selection.members(sets) == ({2}, True)
        query = _query("(S(y) AND T(x)) OR NOT S(x)", True)
        selection = Selection.of_query(query, "sts")
        assert selection.members(sets) == ({1}, True)
        # A lone (negated) atom is its slot's own set, not a copy.
        for condition, negated in (("S(y)", False), ("NOT S(y)", True)):
            selection = Selection.of_query(_query(condition, True), "s")
            keys, flag = selection.members(sets)
            assert keys is sets["s"] and flag is negated
        # A slot no batch asserted has no members.
        selection = Selection.of_query(_query("S(y)", True), "s")
        assert selection.members({}) == (frozenset(), False)
        sink: set = set()
        selection.select({}, [([1], [(1, 10)])], sink)
        assert sink == set()

    def test_select_agrees_with_holds_on_every_small_formula(self):
        """Every φ of at most 7 nodes over four atoms and TRUE (so up to four
        atoms under three connectives), on all 16 membership patterns: key k
        is a member of slot i exactly when bit i of k is set."""
        atoms = [AtomCondition(Atom.of(name, "x")) for name in "ABCD"]

        @lru_cache(maxsize=None)
        def formulas(size: int, negatable: bool = True) -> tuple:
            if size == 1:
                return (*atoms, TRUE)
            found = []
            if negatable:
                found.extend(Not(f) for f in formulas(size - 1, False))
            for left_size in range(1, size - 1):
                for left in formulas(left_size):
                    for right in formulas(size - 1 - left_size):
                        found.extend((And(left, right), Or(left, right)))
            return tuple(found)

        keys = list(range(16))
        rows = [(key, -key) for key in keys]
        sets = {slot: {key for key in keys if key >> slot & 1} for slot in range(4)}
        patterns = [{slot for slot in range(4) if key >> slot & 1} for key in keys]
        slots = [(leaf.atom, slot) for slot, leaf in enumerate(atoms)]
        checked = 0
        for size in range(1, 8):
            for condition in formulas(size):
                selection = Selection("Z", condition, slots, Atom.of("R", "x", "y"))
                sink: set = set()
                selection.select(sets, [(keys, rows)], sink)
                interpreted = {
                    row
                    for row, present in zip(rows, patterns)
                    if selection.holds(present)
                }
                assert sink == interpreted, condition
                checked += 1
        assert checked == 41410

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
