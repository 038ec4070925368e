"""Kernel-vs-interpreted parity: the batch execution path must be invisible.

The batch ("kernel") path of :mod:`repro.mapreduce.kernels` replaces the
tuple-at-a-time map/combine/shuffle/reduce interpretation of every semi-join
shaped job with compiled matchers and set operations, while computing the
simulated Hadoop metrics analytically from pair counts.  The Section 5
matrix (every workload, strategy and backend, kernels on and off) is
``tests/test_parity.py``; these tests pin the rest of the contract down:

* ``kernel_mode="auto"`` and ``kernel_mode="off"`` produce the same run
  (``tests/helpers.py::assert_same_run``: identical output relations and
  ``metrics ==``) for random (B)SGF programs (a hypothesis property over the
  fuzzer's generator), with the paper optimisations ablated, and over
  mixed-type, NaN-bearing and empty relations;
* dispatch honours ``kernel_mode`` and ``supports_kernel`` (baseline and
  skew-salted jobs always interpret; ``"auto"`` means the same on every
  backend — ``tests/test_fanout_kernels.py`` covers the kernels that
  run inside the multi-process backend's workers);
* the differential oracle's kernel axes detect an (injected) kernel bug.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.gumbo import Gumbo
from repro.core.msj import MSJJob
from repro.core.options import GumboOptions
from repro.core.skew import SkewAwareMSJJob
from repro.core.strategies import applicable_strategies
from repro.exec import make_backend
from repro.fuzz.generator import FuzzConfig, generate_case
from repro.fuzz.oracle import DifferentialOracle
from repro.fuzz.runner import FuzzOptions, run_fuzz
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.kernels import use_kernel
from repro.model.atoms import Atom, compile_atom
from repro.model.database import Database
from repro.model.relation import Relation
from repro.query.parser import parse_bsgf, parse_sgf
from repro.workloads.queries import database_for, section5_workloads

from helpers import assert_same_run


def assert_parity(query, database, strategies, backend="serial", options=None):
    """Kernel-on and kernel-off runs of every strategy are the same run."""
    options = options or GumboOptions()
    with make_backend(backend, workers=2) as runner:
        for strategy in strategies:
            off, auto = (
                Gumbo(backend=runner, options=options.without(kernel_mode=mode))
                .execute(query, database, strategy)
                for mode in ("off", "auto")
            )
            assert_same_run(off, auto, f"{backend}:{strategy}")


def non_optimal(query):
    return applicable_strategies(query, include_optimal=False)


# -- optimisations ablated ---------------------------------------------------------


def test_kernel_parity_with_optimisations_ablated():
    query = dict(section5_workloads())["A3"]
    database = database_for(query, guard_tuples=100, selectivity=0.5, seed=9)
    for packing in (True, False):
        for reference in (True, False):
            options = GumboOptions(
                message_packing=packing, tuple_reference=reference
            )
            assert_parity(query, database, non_optimal(query), options=options)


# -- columnar storage: mixed-type columns, NaN values, empty relations --------------

MIXED_TYPE_DB = {
    "R": [
        (1, "a"),
        (2.5, None),
        ("s3", 3),
        (None, "b"),
        (7, 7.5),
        ("s3", None),
    ],
    "S": [(1,), ("s3",), (None,), (9,)],
    "T": [("a",), (3,), (None,)],
}

MIXED_TYPE_QUERY = "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y);"


@pytest.mark.parametrize("backend", ["serial", "parallel"])
def test_kernel_parity_mixed_type_columns(backend):
    """Mixed int/float/str/None columns defeat typed packing but not parity;
    on ``parallel`` the object-column fallback of ColumnBlock.packed ships."""
    query = parse_sgf(MIXED_TYPE_QUERY)
    database = Database.from_dict(MIXED_TYPE_DB)
    assert_parity(query, database, non_optimal(query), backend)


def test_kernel_parity_nan_values_serial():
    """NaN-bearing relations agree bit for bit between the two paths.

    In-process only: the parallel backend ships rows to its workers, which
    clones a NaN into distinct objects that no longer compare equal anywhere
    (IEEE NaN inequality, a property of the data model rather than of either
    execution path), so NaN coverage lives on the serial backend.
    """
    nan = float("nan")
    other_nan = struct.unpack(">d", bytes.fromhex("7ff8000000000001"))[0]
    database = Database.from_dict(
        {
            "R": [(nan, 1), (other_nan, 2), (1.0, nan), (2.0, 3.0), (2.0, nan)],
            "S": [(nan,), (2.0,)],
        }
    )
    query = parse_sgf("Z := SELECT (x, y) FROM R(x, y) WHERE S(x);")
    assert_parity(query, database, non_optimal(query))


def test_kernel_parity_empty_relations():
    """Empty guard, empty conditional, and fully empty databases."""
    query = parse_sgf("Z := SELECT (x, y) FROM R(x, y) WHERE S(x);")
    arities = {"R": 2, "S": 1}
    shapes = [
        {"R": [], "S": [(1,)]},
        {"R": [(1, 2), (3, 4)], "S": []},
        {"R": [], "S": []},
    ]
    for shape in shapes:
        database = Database(
            Relation.from_tuples(name, rows, arity=arities[name])
            for name, rows in shape.items()
        )
        assert_parity(query, database, non_optimal(query))
        assert_parity(query, database, non_optimal(query)[:1], "parallel")


def test_fuzzer_kernel_axes_cover_adversarial_profile():
    """A seeded campaign over mixed-type databases keeps every kernel axis green."""
    report = run_fuzz(
        FuzzOptions(
            seed=17,
            iterations=8,
            workers=2,
            stop_on_failure=False,
            config=FuzzConfig(profile="adversarial"),
        )
    )
    details = "\n\n".join(c.describe() for c in report.counterexamples)
    assert report.ok, f"kernel axes diverged on adversarial data:\n{details}"
    assert report.cases_run == 8


# -- hypothesis: random (B)SGF programs --------------------------------------------


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case_index=st.integers(min_value=0, max_value=400))
def test_kernel_parity_random_programs(case_index):
    case = generate_case(77, case_index, FuzzConfig(max_statements=3, max_tuples=10))
    assert_parity(case.program, case.database, applicable_strategies(case.program))


# -- dispatch rules ----------------------------------------------------------------


class _PlainJob(MapReduceJob):
    """A job without a kernel: must interpret whatever the mode says."""

    def __init__(self):
        super().__init__("plain")
        self.options = GumboOptions(kernel_mode="auto")

    def input_relations(self):
        return ["R"]

    def map(self, relation, row):
        return [((row[0],), tuple(row))]

    def reduce(self, key, values):
        for value in values:
            yield ("OUT", value)

    def output_schema(self):
        return {"OUT": 2}


def test_jobs_without_kernel_always_interpret():
    job = _PlainJob()
    assert not job.supports_kernel()
    assert not use_kernel(job)
    database = Database.from_dict({"R": [(1, 2), (3, 4)]})
    result = MapReduceEngine().run_job(job, database)
    assert result.outputs["OUT"].tuples() == {(1, 2), (3, 4)}


def test_kernel_mode_off_never_calls_map_batch(monkeypatch):
    query = parse_bsgf("Z := SELECT (x) FROM R(x, y) WHERE S(x);")
    specs = query.semijoin_specs()
    database = Database.from_dict({"R": [(1, 2)], "S": [(1,)]})
    job = MSJJob("msj", specs, GumboOptions(kernel_mode="off"))

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("map_batch called despite kernel_mode=off")

    monkeypatch.setattr(MSJJob, "map_batch", boom)
    result = MapReduceEngine().run_job(job, database)
    assert result.outputs[specs[0].output].tuples() == {(1,)}


def test_kernel_mode_auto_uses_the_kernel():
    """One rule for every backend: no mode-dependent fan-out exception."""
    specs = parse_bsgf("Z := SELECT (x) FROM R(x, y) WHERE S(x);").semijoin_specs()
    assert use_kernel(MSJJob("msj", specs, GumboOptions(kernel_mode="auto")))
    assert not use_kernel(MSJJob("msj", specs, GumboOptions(kernel_mode="off")))


def test_skew_salted_msj_falls_back_to_interpreted():
    specs = parse_bsgf("Z := SELECT (x) FROM R(x, y) WHERE S(x);").semijoin_specs()
    job = SkewAwareMSJJob("skew", specs, heavy_keys=[(1,)], salt_factor=4)
    assert not job.supports_kernel()
    assert not use_kernel(job)


def test_invalid_kernel_mode_rejected():
    with pytest.raises(ValueError):
        GumboOptions(kernel_mode="sometimes")


# -- the oracle's kernel axes detect kernel bugs -----------------------------------


def test_corrupted_reduce_batch_is_detected_on_the_kernel_axes(monkeypatch):
    """A kernel that swallows outputs diverges exactly on the +kernel axes."""
    real = MSJJob.reduce_batch

    def corrupted(self, batches):
        outputs = real(self, batches)
        return {name: set() for name in outputs}

    monkeypatch.setattr(MSJJob, "reduce_batch", corrupted)
    program = parse_sgf("Z := SELECT (x) FROM R(x, y) WHERE S(x);")
    database = Database.from_dict({"R": [(1, 2), (3, 4)], "S": [(1,)]})
    with DifferentialOracle(backends=("serial",)) as oracle:
        divergences = oracle.check(program, database)
    assert divergences, "corrupted kernel was not detected"
    assert all(d.backend.endswith("+kernel") for d in divergences), [
        str(d) for d in divergences
    ]


# -- compiled atoms ----------------------------------------------------------------


class TestCompiledAtoms:
    def test_unrestricted_atom_has_no_matcher(self):
        compiled = Atom.of("R", "x", "y").compile()
        assert compiled.matcher is None
        assert compiled.conforms((1, 2))
        assert not compiled.conforms((1, 2, 3))  # arity mismatch

    def test_constant_and_repeated_variable_checks(self):
        atom = Atom.of("R", "x", 7, "x")
        compiled = atom.compile()
        rows = [(1, 7, 1), (1, 7, 2), (1, 8, 1), (3, 7, 3)]
        for row in rows:
            assert compiled.conforms(row) == atom.conforms(row), row

    def test_extractor_matches_projection(self):
        from repro.model.terms import Variable

        atom = Atom.of("R", "x", "y", "x")
        compiled = atom.compile()
        x, y = Variable("x"), Variable("y")
        row = (1, 2, 1)
        assert compiled.extractor((y, x))(row) == atom.project(row, (y, x))
        assert compiled.extractor(())(row) == ()
        assert compiled.extractor((x,))(row) == (1,)

    def test_compile_is_cached_per_atom_value(self):
        first = compile_atom(Atom.of("R", "x", 1))
        second = compile_atom(Atom.of("R", "x", 1))
        assert first is second
