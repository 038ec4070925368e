"""Incremental delta evaluation: unit rules, property tests, oracle campaign.

Five layers are covered:

* statement-level delta rules: inserts into guards, conditionals and both;
  negation and disjunction (where inserts *remove* output tuples); support
  counting across collapsing projections; multi-statement programs where
  intermediate deltas (insertions and deletions) propagate into downstream
  guards and conditionals;
* the engine seam: a materialization built on either backend refreshes
  from its maintained indexes to a full recompute's answer;
* the counted indexes: truth by count, guard lists without empty leftovers,
  deletion of an unindexed key, and the traced bytes per indexed row;
* a hypothesis property: for random programs and random insert batches the
  refreshed materialization equals the reference evaluation of the rebuilt
  database;
* the incremental oracle: a ≥200-case seeded campaign over every applicable
  strategy shows zero divergence, and a deliberately corrupted delta rule is
  detected.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, Gumbo
from repro.fuzz import (
    DifferentialOracle,
    FuzzOptions,
    generate_case,
    generate_insert_batch,
    run_fuzz,
)
from repro.incremental import (
    IncrementalError,
    apply_inserts,
    dedupe_inserts,
    materialize_query,
)
from repro.incremental.materialize import _AtomIndex
from repro.model.atoms import Atom
from repro.query.reference import evaluate_sgf

#: Ceiling on the traced bytes one indexed row costs a materialization build:
#: CPython 3.11 measures ~132 B, and a set of rows per key — the former
#: layout — measured ~353 B.
BYTES_PER_INDEXED_ROW = 200


def _recompute_answers(gumbo, query, database, inserts):
    """Reference answers over a fresh copy of *database* plus *inserts*."""
    mutated = database.copy()
    apply_inserts(mutated, dedupe_inserts(mutated, inserts))
    return {
        name: frozenset(rel.tuples())
        for name, rel in evaluate_sgf(gumbo.as_sgf(query), mutated).items()
    }


def _check(query, data, inserts, strategy=None, backend="serial", workers=None):
    """Materialize, refresh, and compare against a full recompute."""
    database = Database.from_dict(data) if isinstance(data, dict) else data
    with Gumbo(backend=backend, workers=workers) as gumbo:
        materialization = gumbo.materialize(query, database.copy(), strategy)
        expected = _recompute_answers(gumbo, query, database, inserts)
        delta = gumbo.execute_delta(materialization, inserts)
        assert materialization.answers() == expected
        return materialization, delta


class TestStatementDeltaRules:
    def test_insert_into_conditional_adds_output(self):
        query = "Z := SELECT (x, y) FROM R(x, y) WHERE S(x);"
        mat, delta = _check(
            query,
            {"R": [(1, 2), (3, 4)], "S": [(1,)]},
            {"S": [(3,)]},
        )
        assert delta.added == {"Z": frozenset({(3, 4)})}
        assert not delta.removed
        assert delta.affected_guard_tuples == 1  # only the flipped guard row

    def test_insert_into_guard_adds_output(self):
        query = "Z := SELECT (x) FROM R(x, y) WHERE S(x);"
        mat, delta = _check(
            query,
            {"R": [(1, 2)], "S": [(1,), (7,)]},
            {"R": [(7, 7), (9, 9)]},
        )
        assert delta.added == {"Z": frozenset({(7,)})}
        assert not delta.removed

    def test_negation_insert_removes_output(self):
        query = "Z := SELECT (x) FROM R(x, y) WHERE NOT T(y);"
        mat, delta = _check(
            query,
            {"R": [(1, 2), (3, 4)], "T": [(4,)]},
            {"T": [(2,)]},
        )
        assert delta.removed == {"Z": frozenset({(1,)})}
        assert not delta.added
        assert (1,) not in mat.output("Z")

    def test_projection_support_counting_keeps_shared_output(self):
        # Both guard rows project to (1,); flipping one must not remove it.
        query = "Z := SELECT (x) FROM R(x, y) WHERE NOT T(y);"
        mat, delta = _check(
            query,
            {"R": [(1, 2), (1, 3)]},
            {"T": [(2,)]},
        )
        assert not delta.added and not delta.removed
        assert (1,) in mat.output("Z")
        # Flip the second supporter too: now the output tuple must go.
        with Gumbo() as gumbo:
            db = Database.from_dict({"R": [(1, 2), (1, 3)], "T": [(2,)]})
            mat2 = gumbo.materialize(query, db, None)
            d2 = gumbo.execute_delta(mat2, {"T": [(3,)]})
            assert d2.removed == {"Z": frozenset({(1,)})}

    def test_disjunction_no_false_removal(self):
        query = "Z := SELECT (x) FROM R(x, y) WHERE S(x) OR NOT T(y);"
        _check(
            query,
            {"R": [(1, 2), (3, 4)], "S": [(1,)]},
            {"T": [(2,), (4,)]},
        )

    def test_intermediate_delta_propagates_to_downstream_guard(self):
        query = (
            "Z1 := SELECT (x) FROM R(x, y) WHERE S(x);\n"
            "Z2 := SELECT (x) FROM Z1(x) WHERE T(x);"
        )
        mat, delta = _check(
            query,
            {"R": [(1, 2), (3, 4)], "S": [(1,)], "T": [(3,)]},
            {"S": [(3,)]},
        )
        assert delta.added["Z1"] == frozenset({(3,)})
        assert delta.added["Z2"] == frozenset({(3,)})

    def test_intermediate_removal_propagates_downstream(self):
        # Inserting into T removes from Z1 (negation), which must remove the
        # corresponding Z2 tuples downstream.
        query = (
            "Z1 := SELECT (x) FROM R(x, y) WHERE NOT T(y);\n"
            "Z2 := SELECT (x) FROM G(x) WHERE Z1(x);"
        )
        mat, delta = _check(
            query,
            {"R": [(1, 2)], "G": [(1,)]},
            {"T": [(2,)]},
        )
        assert delta.removed == {
            "Z1": frozenset({(1,)}),
            "Z2": frozenset({(1,)}),
        }

    def test_downstream_negated_intermediate(self):
        # Z1 gains a tuple -> NOT Z1(x) flips false for a G row.
        query = (
            "Z1 := SELECT (x) FROM R(x, y) WHERE S(x);\n"
            "Z2 := SELECT (x) FROM G(x) WHERE NOT Z1(x);"
        )
        mat, delta = _check(
            query,
            {"R": [(3, 4)], "G": [(3,)]},
            {"S": [(3,)]},
        )
        assert delta.added["Z1"] == frozenset({(3,)})
        assert delta.removed["Z2"] == frozenset({(3,)})

    def test_duplicate_and_existing_rows_are_no_ops(self):
        query = "Z := SELECT (x) FROM R(x, y) WHERE S(x);"
        mat, delta = _check(
            query,
            {"R": [(1, 2)], "S": [(1,)]},
            {"R": [(1, 2), (1, 2)], "S": [(1,)]},
        )
        assert delta.inserted_tuples == 0
        assert not delta.added and not delta.removed

    def test_empty_batch_is_a_no_op(self):
        query = "Z := SELECT (x) FROM R(x, y);"
        mat, delta = _check(query, {"R": [(1, 2)]}, {})
        assert delta.inserted_tuples == 0
        assert delta.affected_guard_tuples == 0

    def test_insert_creates_missing_relation(self):
        # S is absent from the seed database; the batch brings it to life.
        query = "Z := SELECT (x) FROM R(x, y) WHERE S(x);"
        database = Database.from_dict({"R": [(1, 2), (3, 4)]})
        mat, delta = _check(query, database, {"S": [(1,)]})
        assert delta.added == {"Z": frozenset({(1,)})}

    def test_insert_into_output_relation_is_rejected(self):
        query = "Z := SELECT (x) FROM R(x, y);"
        with Gumbo() as gumbo:
            db = Database.from_dict({"R": [(1, 2)]})
            mat = gumbo.materialize(query, db, None)
            with pytest.raises(IncrementalError):
                gumbo.execute_delta(mat, {"Z": [(9,)]})

    def test_guard_constants_and_repeated_variables(self):
        query = "Z := SELECT (x) FROM R(x, x, 1) WHERE S(x);"
        _check(
            query,
            {"R": [(2, 2, 1), (3, 4, 1), (5, 5, 9)], "S": [(2,)]},
            {"R": [(7, 7, 1)], "S": [(7,), (5,)]},
        )

    def test_boolean_keyless_conditional_flip_touches_every_row(self):
        # W shares no variable with the guard: flipping it re-evaluates all.
        query = "Z := SELECT (x) FROM R(x) WHERE NOT W(z);"
        mat, delta = _check(
            query,
            {"R": [(1,), (2,), (3,)]},
            {"W": [(0,)]},
        )
        assert delta.removed == {"Z": frozenset({(1,), (2,), (3,)})}
        assert delta.affected_guard_tuples == 3


class TestEngineSeam:
    def test_materialization_built_on_parallel_refreshes_from_indexes(self):
        query = (
            "Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y);\n"
            "Z2 := SELECT (y) FROM Z1(x, y) WHERE U(y) OR NOT S(x);"
        )
        data = {
            "R": [(1, 2), (3, 4), (5, 6)],
            "S": [(1,), (3,)],
            "T": [(6,)],
            "U": [(2,)],
        }
        inserts = {"T": [(2,)], "S": [(5,)], "R": [(7, 8)], "U": [(8,)]}
        mat, delta = _check(query, data, inserts, backend="parallel", workers=2)
        assert not delta.added
        assert delta.removed == {
            "Z1": frozenset({(1, 2)}),
            "Z2": frozenset({(2,)}),
        }

    def test_parallel_backend_refresh_matches(self):
        query = "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y);"
        data = {"R": [(1, 2), (3, 4)], "S": [(1,)]}
        _check(query, data, {"S": [(3,)], "T": [(2,)]}, backend="parallel")

    def test_materialization_repr_and_result_refreshed_in_place(self):
        query = "Z := SELECT (x) FROM R(x, y) WHERE S(x);"
        with Gumbo() as gumbo:
            db = Database.from_dict({"R": [(1, 2), (3, 4)], "S": [(1,)]})
            mat = gumbo.materialize(query, db, "auto")
            result = mat.result  # held by a caller, refreshed in place
            assert result.output().tuples() == {(1,)}
            gumbo.execute_delta(mat, {"S": [(3,)]})
            assert result.output().tuples() == {(1,), (3,)}
            assert mat.refreshes == 1
            assert "refreshes=1" in repr(mat)

    def test_repeated_refreshes_accumulate(self):
        query = "Z := SELECT (x) FROM R(x, y) WHERE S(x) AND NOT T(y);"
        with Gumbo() as gumbo:
            db = Database.from_dict({"R": [(1, 2), (3, 4)]})
            mat = gumbo.materialize(query, db, None)
            gumbo.execute_delta(mat, {"S": [(1,)]})
            gumbo.execute_delta(mat, {"S": [(3,)], "T": [(2,)]})
            gumbo.execute_delta(mat, {"R": [(5, 5)], "S": [(5,)]})
            expected = _recompute_answers(gumbo, query, db, {})
            assert mat.answers() == expected


class TestCountedIndexes:
    def test_truth_is_a_count_of_conforming_rows(self):
        # Z1 rows (1, 2) and (1, 3) both support Z2's key (1,); removing
        # them one batch at a time arrives through delta.deleted.
        query = (
            "Z1 := SELECT (x, y) FROM R(x, y) WHERE NOT T(y);\n"
            "Z2 := SELECT (x) FROM G(x) WHERE Z1(x, y);"
        )
        with Gumbo() as gumbo:
            db = Database.from_dict({"R": [(1, 2), (1, 3)], "G": [(1,)]})
            mat = gumbo.materialize(query, db, None)
            (index,) = mat.states[1].indexes.values()
            assert index.count_by_key == {(1,): 2}
            first = gumbo.execute_delta(mat, {"T": [(2,)]})
            assert first.removed == {"Z1": frozenset({(1, 2)})}
            assert index.count_by_key == {(1,): 1}
            assert (1,) in mat.output("Z2")
            second = gumbo.execute_delta(mat, {"T": [(3,)]})
            assert second.removed == {
                "Z1": frozenset({(1, 3)}),
                "Z2": frozenset({(1,)}),
            }
            assert index.count_by_key == {}

    def test_guard_list_removal_leaves_no_empty_list(self):
        query = (
            "Z1 := SELECT (x, y) FROM R(x, y) WHERE NOT T(y);\n"
            "Z2 := SELECT (x) FROM Z1(x, y) WHERE S(x);"
        )
        with Gumbo() as gumbo:
            db = Database.from_dict(
                {"R": [(1, 2), (1, 3), (4, 5)], "S": [(1,), (4,)]}
            )
            mat = gumbo.materialize(query, db, None)
            (by_key,) = mat.states[1].guard_by_key.values()
            assert sorted(by_key[(1,)]) == [(1, 2), (1, 3)]
            gumbo.execute_delta(mat, {"T": [(2,)]})
            assert by_key[(1,)] == [(1, 3)]
            gumbo.execute_delta(mat, {"T": [(3,)]})
            assert by_key == {(4,): [(4, 5)]}
            assert mat.answers()["Z2"] == frozenset({(4,)})

    def test_discard_of_an_unindexed_key_raises(self):
        index = _AtomIndex(Atom.of("S", "x", 1), Atom.of("R", "x", "y"))
        index.build(Database.from_dict({"S": [(1, 1), (2, 1), (2, 9)]})["S"])
        assert index.count_by_key == {(1,): 1, (2,): 1}
        assert index.discard((3, 9)) is None  # does not conform: not counted
        with pytest.raises(IncrementalError):
            index.discard((3, 1))
        assert index.discard((2, 1)) == (2,)
        assert index.count_by_key == {(1,): 1}

    def test_traced_bytes_per_indexed_row(self):
        # Conditional rows outnumber guard rows 8 to 1 and each has its own
        # join key, so the build is dominated by one conditional entry per key.
        rows = 4_000
        guard = rows // 4
        query = "Z := SELECT (x) FROM R(x, y) WHERE S(x) AND NOT T(y);"
        database = Database.from_dict(
            {
                "R": [(i, i + rows) for i in range(guard)],
                "S": [(i,) for i in range(0, 2 * rows, 2)],
                "T": [(i + rows,) for i in range(0, 3 * rows, 3)],
            }
        )
        with Gumbo() as gumbo:
            result = gumbo.execute(query, database)
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                materialization = materialize_query(
                    gumbo, query, database, result=result
                )
                traced = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        # Z holds the even x whose y is not in T (x not a multiple of 6).
        expected = len(range(0, guard, 2)) - len(range(0, guard, 6))
        assert len(materialization.output()) == expected
        indexed = guard + 2 * rows
        assert traced / indexed < BYTES_PER_INDEXED_ROW, traced / indexed


# -- hypothesis property: incremental == recompute ------------------------------

_ORACLE = None


def _shared_oracle() -> DifferentialOracle:
    global _ORACLE
    if _ORACLE is None:
        _ORACLE = DifferentialOracle(
            backends=("serial",), include_dynamic=False, check_metrics=False
        )
    return _ORACLE


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    index=st.integers(min_value=0, max_value=31),
)
def test_property_incremental_equals_recompute(seed, index):
    """Random program + random insert batch: refresh == full recompute."""
    case = generate_case(seed, index)
    inserts = generate_insert_batch(seed, index, case.program)
    divergences = _shared_oracle().check_incremental(
        case.program, case.database, inserts
    )
    assert not divergences, "\n".join(str(d) for d in divergences)


# -- the oracle campaign ---------------------------------------------------------


def test_incremental_oracle_campaign_200_cases():
    """≥200 cases, every applicable strategy refreshed: no divergence."""
    report = run_fuzz(
        FuzzOptions(
            seed=29,
            iterations=200,
            backends=("serial",),
            incremental=True,
            stop_on_failure=False,
        )
    )
    details = "\n\n".join(c.describe() for c in report.counterexamples)
    assert report.ok, f"incremental oracle found divergences:\n{details}"
    assert report.cases_run == 200
    # One refresh per strategy: at least one fixed strategy plus AUTO.
    assert report.combinations_checked >= 200 * 2


def test_corrupted_delta_rule_is_detected_and_shrunk(monkeypatch):
    """Breaking removal propagation must surface as incremental divergences."""
    from repro.incremental.materialize import _StatementState

    original = _StatementState._bump

    def corrupted(self, out, delta, added, removed):
        if delta < 0:
            return  # deletions silently dropped: negation handling broken
        original(self, out, delta, added, removed)

    monkeypatch.setattr(_StatementState, "_bump", corrupted)
    report = run_fuzz(
        FuzzOptions(seed=5, iterations=40, backends=("serial",), incremental=True)
    )
    assert not report.ok
    counterexample = report.counterexamples[0]
    assert counterexample.inserts is not None
    assert any(
        d.kind in ("incremental", "error")
        for d in counterexample.shrunk_divergences
    )
    script = counterexample.script()
    assert "check_incremental" in script
    assert "inserts" in script
