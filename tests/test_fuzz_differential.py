"""The workload fuzzer: differential oracle, generator invariants, shrinking.

Three layers are covered:

* a seeded smoke campaign (50 random programs) asserting that every
  applicable strategy on every backend — including the dynamic executor —
  agrees with the reference evaluator, tuple for tuple and simulated-metric
  for simulated-metric;
* generator invariants: guardedness by construction, valid dependency
  structure, schema-consistent databases, parse/unparse round-trips,
  determinism of ``(seed, index)``;
* failure handling: a deliberately corrupted strategy is detected and the
  counterexample greedily shrunk to a minimal case, and the emitted repro
  script is a self-contained Python program.
"""

from __future__ import annotations

import random

import pytest

from repro.core.fused import FusedOneRoundJob
from repro.fuzz import (
    DifferentialOracle,
    FuzzConfig,
    FuzzOptions,
    case_rng,
    case_size,
    generate_case,
    generate_database,
    generate_program,
    make_profile,
    run_fuzz,
    shrink_case,
)
from repro.fuzz.profiles import PROFILE_NAMES
from repro.model.database import Database
from repro.query.conditions import TRUE
from repro.query.parser import parse_sgf


# -- the seeded smoke campaign -------------------------------------------------------


def test_smoke_campaign_all_strategies_and_backends_agree():
    """50 random programs: every strategy × backend matches the reference."""
    report = run_fuzz(
        FuzzOptions(seed=7, iterations=50, workers=2, stop_on_failure=False)
    )
    details = "\n\n".join(c.describe() for c in report.counterexamples)
    assert report.ok, f"fuzzer found divergences:\n{details}"
    assert report.cases_run == 50
    # The sweep really exercised a matrix, not a single combination.
    assert report.combinations_checked >= 50 * 2 * 2


def test_campaign_is_deterministic():
    first = generate_case(11, 3)
    second = generate_case(11, 3)
    assert first.program == second.program
    assert {r.name: r.tuples() for r in first.database} == {
        r.name: r.tuples() for r in second.database
    }


def test_cases_draw_their_split_and_the_oracle_runs_under_it():
    """The largest relation of a case reads as 1..20 map chunks (capped by
    its rows), and the oracle's engine splits by the case only inside
    ``oracle.split``."""
    chunk_counts = set()
    with DifferentialOracle(backends=("serial",)) as oracle:
        engine = oracle.engine
        paper_cluster = engine.cluster
        for index in range(40):
            case = generate_case(7, index)
            assert case.split_mb == generate_case(7, index).split_mb
            largest = max(case.database, key=lambda relation: relation.size_mb())
            if not len(largest):
                assert case.split_mb is None
                continue
            with oracle.split(case.split_mb):
                mappers = engine.mappers_for(largest.size_mb())
                assert 1 <= mappers <= 20
                chunk_counts.add(len(largest.column_chunks(mappers)))
            assert engine.cluster is paper_cluster
    assert min(chunk_counts) == 1 and max(chunk_counts) >= 8


# -- generator invariants ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_generator_guardedness_invariants(seed):
    """Generated programs satisfy the SGF restrictions by construction."""
    config = FuzzConfig(max_statements=6)
    for index in range(30):
        rng = case_rng(seed, index)
        program = generate_program(rng, config)
        produced = []
        for query in program:
            guard_vars = query.guard.variable_set()
            # 1. Every SELECT variable occurs in the guard.
            assert set(query.projection) <= guard_vars
            # 2. Distinct conditional atoms share only guard variables.
            atoms = query.conditional_atoms
            for i in range(len(atoms)):
                for j in range(i + 1, len(atoms)):
                    assert atoms[i].shared_variables(atoms[j]) <= guard_vars
            # 3. References only go backwards (no self/forward references).
            assert query.output not in query.relation_names
            for name in query.relation_names:
                if name.startswith("Z"):
                    assert name in produced
            produced.append(query.output)
        # 4. The concrete syntax round-trips exactly.
        assert parse_sgf(program.unparse()) == program


def test_generated_database_matches_program_schema():
    config = FuzzConfig(max_statements=5)
    for index in range(20):
        rng = case_rng(23, index)
        program = generate_program(rng, config)
        database = generate_database(rng, program, config)
        outputs = set(program.output_names)
        for query in program:
            for atom in (query.guard, *query.conditional_atoms):
                if atom.relation in outputs:
                    continue
                relation = database.get(atom.relation)
                assert relation is not None, f"missing relation {atom.relation}"
                assert relation.arity == atom.arity


@pytest.mark.parametrize("name", PROFILE_NAMES)
def test_every_profile_generates_valid_rows(name):
    profile = make_profile(name)
    rng = random.Random(99)
    for arity in (1, 3):
        count = profile.cardinality(rng, 10)
        assert 0 <= count <= 10
        rows = profile.rows(rng, arity, count, domain=5)
        assert len(rows) == count
        assert all(len(row) == arity for row in rows)
        # Values derive from draws over range(domain); the adversarial
        # profile maps draws to mixed types (and mixed may delegate to it),
        # everyone else stays integral.
        if name in ("adversarial", "mixed"):
            assert all(
                value is None or isinstance(value, (int, float, str))
                for row in rows
                for value in row
            )
        else:
            assert all(0 <= value < 5 for row in rows for value in row)
        # The one-shot template honours the same bounds.
        rows = profile.generate(rng, arity, 10, 5)
        assert len(rows) <= 10
        assert all(len(row) == arity for row in rows)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        make_profile("nope")


def test_degenerate_profile_can_produce_multi_tuple_relations():
    """The constant-key shape yields >1 distinct tuples (sets dedup copies)."""
    profile = make_profile("degenerate")
    rng = random.Random(1)
    saw_multi = False
    for _ in range(50):
        count = profile.cardinality(rng, 10)
        rows = profile.rows(rng, 3, count, domain=6)
        distinct = set(rows)
        if len(distinct) > 1:
            saw_multi = True
            # All tuples of the constant-key shape share the first column.
            assert len({row[0] for row in distinct}) == 1
    assert saw_multi


# -- shrinker convergence ------------------------------------------------------------


def test_shrinker_converges_to_floor_under_always_true_predicate():
    """With an always-true predicate the shrinker reaches the minimal case."""
    case = generate_case(5, 2, FuzzConfig(max_statements=6))
    program, database = shrink_case(case.program, case.database, lambda p, d: True)
    assert len(program) == 1
    assert program[0].condition is TRUE
    assert sum(len(relation) for relation in database) == 0
    assert case_size(program, database) <= case_size(case.program, case.database)


def test_shrinker_preserves_the_interesting_property():
    """A predicate keyed on one relation's data keeps exactly that data."""
    case = generate_case(29, 0, FuzzConfig(max_statements=4))
    # Pick a base relation that actually has tuples in this case.
    target = next(r.name for r in case.database if len(r) > 0)

    def keeps_target(program, database):
        relation = database.get(target)
        return relation is not None and len(relation) >= 1

    program, database = shrink_case(case.program, case.database, keeps_target)
    assert len(database[target]) == 1
    others = sum(len(r) for r in database if r.name != target)
    assert others == 0


# -- corrupted strategies are detected and shrunk ------------------------------------


def test_corrupted_partition_strategy_is_detected_and_shrunk(monkeypatch):
    """Dropping a semi-join group from PAR's partition is caught and minimised."""
    import repro.core.strategies as strategies

    real = strategies.singleton_partition

    def corrupted(specs):
        groups = real(specs)
        return groups[:-1]

    monkeypatch.setattr(strategies, "singleton_partition", corrupted)
    report = run_fuzz(
        FuzzOptions(
            seed=3,
            iterations=20,
            config=FuzzConfig(max_statements=1),
            backends=("serial",),
        )
    )
    assert not report.ok, "corrupted PAR strategy was not detected"
    counterexample = report.counterexamples[0]
    assert any(d.strategy == "par" for d in counterexample.shrunk_divergences)
    # Greedy shrinking reached the minimal shape: one statement, one
    # conditional atom, no data at all.
    assert len(counterexample.program) == 1
    assert len(counterexample.program[0].conditional_atoms) == 1
    assert sum(len(r) for r in counterexample.database) == 0


def test_corrupted_one_round_job_is_isolated_to_that_strategy(monkeypatch):
    """A fused job that swallows outputs diverges on 1-ROUND and nowhere else.

    The corruption is injected into the interpreted ``reduce``, which the
    batch-kernel path (correctly) does not execute — the mirror-image
    corruption is covered in test_kernels.py.  So the interpreted ``serial``
    axis misses tuples, and the ``serial+kernel`` axis answers correctly but
    differs from it in simulated metrics (its jobs write the tuples the
    corrupted ones swallow).
    """
    monkeypatch.setattr(FusedOneRoundJob, "reduce", lambda self, key, values: iter(()))
    program = parse_sgf("Z := SELECT (x) FROM R(x, y) WHERE S(x);")
    database = Database.from_dict({"R": [(1, 2), (3, 4)], "S": [(1,)]})
    with DifferentialOracle(backends=("serial",)) as oracle:
        divergences = oracle.check(program, database)
    assert divergences, "corrupted 1-ROUND job was not detected"
    assert {d.strategy for d in divergences} == {"1-round"}
    assert {(d.kind, d.backend) for d in divergences} == {
        ("mismatch", "serial"),
        ("metrics", "serial+kernel"),
    }

    # The shrunk counterexample still shows the missing-tuple divergence.
    def diverges(candidate_program, candidate_database):
        with DifferentialOracle(backends=("serial",)) as inner:
            found = inner.check(candidate_program, candidate_database)
            return any(divergence.kind == "mismatch" for divergence in found)

    shrunk_program, shrunk_database = shrink_case(program, database, diverges)
    assert len(shrunk_program) == 1
    assert sum(len(r) for r in shrunk_database) == 1  # one guard tuple suffices


# -- counterexample repro scripts ----------------------------------------------------


def test_repro_script_replays_the_campaigns_own_oracle(monkeypatch, capsys):
    """The repro script is a standalone Python program embedding the case,
    and a counterexample found on ``parallel(2)`` is replayed there, not on
    the oracle's default backends and width."""
    import repro.core.strategies as strategies

    real = strategies.singleton_partition
    monkeypatch.setattr(strategies, "singleton_partition", lambda s: real(s)[:-1])
    report = run_fuzz(
        FuzzOptions(
            seed=3,
            iterations=10,
            config=FuzzConfig(max_statements=1),
            backends=("parallel",),
            workers=2,
        )
    )
    assert not report.ok
    script = report.counterexamples[0].script()
    assert "parse_sgf" in script
    assert "generate_case(3," in script
    assert (
        "DifferentialOracle(backends=('parallel',), workers=2)" in script
    )
    capsys.readouterr()
    exec(compile(script, "counterexample.py", "exec"), {})
    replayed = capsys.readouterr().out
    assert "backend=parallel" in replayed
    assert "no divergence reproduced" not in replayed


def test_repro_script_survives_backslash_and_quote_constants():
    """The program is embedded via repr(), immune to escape-sequence mangling."""
    from repro.fuzz.runner import Counterexample

    program = parse_sgf('Z := SELECT (x) FROM R(x, "a\\tb", \'has"quote\');')
    assert any("\\t" in str(c.value) for c in program[0].guard.constants)
    database = Database.from_dict({"R": [(1, "a\\tb", 'has"quote')]})
    counterexample = Counterexample(
        case=generate_case(0, 0),
        divergences=[],
        program=program,
        database=database,
        shrunk_divergences=[],
    )
    script = counterexample.script()
    compile(script, "counterexample.py", "exec")
    # The embedded literal evaluates back to the exact program text.
    assert repr(program.unparse()) in script
    import ast

    embedded = next(
        node.args[0].value
        for node in ast.walk(ast.parse(script))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", "") == "parse_sgf"
        and isinstance(node.args[0], ast.Constant)
    )
    assert parse_sgf(embedded) == program


# -- oracle plumbing ----------------------------------------------------------------


def test_oracle_reports_errors_as_divergences():
    """A strategy that raises (not just mis-answers) is still a finding."""
    program = parse_sgf("Z := SELECT (x) FROM R(x) WHERE S(x);")
    database = Database.from_dict({"R": [(1,)], "S": [(1,)]})
    with DifferentialOracle(backends=("serial",)) as oracle:

        class Boom(RuntimeError):
            pass

        original = oracle._gumbos["serial"].execute

        def explode(query, db, strategy):
            if strategy == "greedy":
                raise Boom("injected")
            return original(query, db, strategy)

        oracle._gumbos["serial"].execute = explode
        divergences = oracle.check(program, database)
    errors = [d for d in divergences if d.kind == "error"]
    assert len(errors) == 1
    assert errors[0].strategy == "greedy"
    assert "injected" in errors[0].detail


def test_oracle_combinations_cover_dynamic_executor():
    program = parse_sgf("Z := SELECT (x) FROM R(x) WHERE S(x);")
    with DifferentialOracle(backends=("serial",)) as oracle:
        combos = oracle.combinations(program)
    strategies_seen = {strategy for strategy, _ in combos}
    assert "dynamic" in strategies_seen
    assert {"seq", "par", "greedy"} <= strategies_seen
