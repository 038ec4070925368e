"""Kernel-vs-interpreted parity: the batch execution path must be invisible.

The batch ("kernel") path of :mod:`repro.mapreduce.kernels` replaces the
tuple-at-a-time map/combine/shuffle/reduce interpretation of every semi-join
shaped job with compiled matchers and set operations, while computing the
simulated Hadoop metrics analytically from pair counts.  These tests pin the
contract down:

* on every Section 5 workload, under every applicable strategy and on both
  execution backends, ``kernel_mode="on"`` and ``kernel_mode="off"`` produce
  bit-identical output relations **and** bit-identical :class:`JobMetrics`
  (partition metrics, reducer counts, cost breakdowns, per-task durations —
  i.e. including the skew-sensitive per-reducer loads);
* the same parity holds for random (B)SGF programs (a hypothesis property
  over the fuzzer's generator), including with the paper optimisations
  ablated;
* dispatch honours ``kernel_mode`` and ``supports_kernel`` (baseline and
  skew-salted jobs always interpret; ``"auto"`` and ``"on"`` are synonyms on
  every backend — ``tests/test_fanout_kernels.py`` covers the kernels that
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
from repro.exec import SimulatedBackend, make_backend
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

WORKLOAD_TUPLES = 150


def assert_job_metrics_equal(interpreted, kernel, context=""):
    """Every simulated measurement must match, field for field."""
    assert set(interpreted.job_metrics) == set(kernel.job_metrics), context
    for job_id, expected in interpreted.job_metrics.items():
        got = kernel.job_metrics[job_id]
        label = f"{context}:{job_id}"
        assert expected.partitions == got.partitions, label
        assert expected.reducers == got.reducers, label
        assert expected.output_mb == got.output_mb, label
        assert expected.output_records == got.output_records, label
        assert expected.breakdown == got.breakdown, label
        assert expected.map_task_durations == got.map_task_durations, label
        assert expected.reduce_task_durations == got.reduce_task_durations, label
    assert interpreted.summary() == kernel.summary(), context
    assert interpreted.level_net_times == kernel.level_net_times, context


def assert_results_equal(expected, got, context=""):
    """Identical output relations and identical simulated metrics."""
    assert set(expected.all_outputs) == set(got.all_outputs), context
    for name, relation in expected.all_outputs.items():
        assert relation.tuples() == got.all_outputs[name].tuples(), f"{context}:{name}"
    assert_job_metrics_equal(expected.metrics, got.metrics, context)


def assert_parity(query, database, strategy, backend_factory, options=None):
    """Outputs and metrics of kernel-on vs kernel-off runs must be identical."""
    options = options or GumboOptions()
    results = {}
    for mode in ("off", "on"):
        backend = backend_factory()
        try:
            gumbo = Gumbo(backend=backend, options=options.without(kernel_mode=mode))
            results[mode] = gumbo.execute(query, database, strategy)
        finally:
            backend.close()
    assert_results_equal(results["off"], results["on"], f"{strategy}")


# -- Section 5 workloads: the full strategy matrix ---------------------------------


@pytest.mark.parametrize(
    "query_id,query",
    section5_workloads(),
    ids=[query_id for query_id, _ in section5_workloads()],
)
def test_kernel_parity_section5_serial(query_id, query):
    database = database_for(
        query, guard_tuples=WORKLOAD_TUPLES, selectivity=0.5, seed=13
    )
    for strategy in applicable_strategies(query, include_optimal=False):
        assert_parity(query, database, strategy, lambda: SimulatedBackend())


@pytest.mark.parametrize("query_id", ["A1", "A3", "B2", "C2"])
def test_kernel_parity_parallel_backend(query_id):
    query = dict(section5_workloads())[query_id]
    database = database_for(query, guard_tuples=80, selectivity=0.5, seed=5)
    strategy = next(iter(applicable_strategies(query, include_optimal=False)))
    assert_parity(
        query,
        database,
        strategy,
        lambda: make_backend("parallel", workers=2),
    )


def test_kernel_parity_with_optimisations_ablated():
    query = dict(section5_workloads())["A3"]
    database = database_for(query, guard_tuples=100, selectivity=0.5, seed=9)
    for packing in (True, False):
        for reference in (True, False):
            options = GumboOptions(
                message_packing=packing, tuple_reference=reference
            )
            for strategy in applicable_strategies(query, include_optimal=False):
                assert_parity(
                    query, database, strategy, lambda: SimulatedBackend(), options
                )


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


def test_kernel_parity_mixed_type_columns_serial():
    """Mixed int/float/str/None columns defeat typed packing but not parity."""
    query = parse_sgf(MIXED_TYPE_QUERY)
    database = Database.from_dict(MIXED_TYPE_DB)
    for strategy in applicable_strategies(query, include_optimal=False):
        assert_parity(query, database, strategy, lambda: SimulatedBackend())


def test_kernel_parity_mixed_type_columns_parallel():
    """Object-column fallback of ColumnBlock.packed still ships correctly."""
    query = parse_sgf(MIXED_TYPE_QUERY)
    database = Database.from_dict(MIXED_TYPE_DB)
    strategy = next(iter(applicable_strategies(query, include_optimal=False)))
    assert_parity(
        query,
        database,
        strategy,
        lambda: make_backend("parallel", workers=2),
    )


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
    for strategy in applicable_strategies(query, include_optimal=False):
        assert_parity(query, database, strategy, lambda: SimulatedBackend())


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
        strategies = applicable_strategies(query, include_optimal=False)
        for strategy in strategies:
            assert_parity(query, database, strategy, lambda: SimulatedBackend())
        assert_parity(
            query,
            database,
            next(iter(strategies)),
            lambda: make_backend("parallel", workers=2),
        )


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
    for strategy in applicable_strategies(case.program, include_optimal=True):
        assert_parity(
            case.program, case.database, strategy, lambda: SimulatedBackend()
        )


# -- dispatch rules ----------------------------------------------------------------


class _PlainJob(MapReduceJob):
    """A job without a kernel: must interpret whatever the mode says."""

    def __init__(self):
        super().__init__("plain")
        self.options = GumboOptions(kernel_mode="on")

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


def test_kernel_modes_auto_and_on_are_synonyms():
    """One rule for every backend: no mode-dependent fan-out exception."""
    specs = parse_bsgf("Z := SELECT (x) FROM R(x, y) WHERE S(x);").semijoin_specs()
    assert use_kernel(MSJJob("msj", specs, GumboOptions(kernel_mode="auto")))
    assert use_kernel(MSJJob("msj", specs, GumboOptions(kernel_mode="on")))
    assert not use_kernel(MSJJob("msj", specs, GumboOptions(kernel_mode="off")))


def test_skew_salted_msj_falls_back_to_interpreted():
    specs = parse_bsgf("Z := SELECT (x) FROM R(x, y) WHERE S(x);").semijoin_specs()
    job = SkewAwareMSJJob("skew", specs, heavy_keys=[(1,)], salt_factor=4)
    assert not job.supports_kernel()
    assert not use_kernel(job)


def test_invalid_kernel_mode_rejected():
    with pytest.raises(ValueError):
        GumboOptions(kernel_mode="sometimes")


def test_parallel_wall_metrics_present_for_forced_kernel():
    query = parse_sgf("Z := SELECT (x) FROM R(x, y) WHERE S(x);")
    database = Database.from_dict({"R": [(1, 2), (3, 4)], "S": [(1,)]})
    backend = make_backend("parallel", workers=2)
    try:
        gumbo = Gumbo(backend=backend, options=GumboOptions(kernel_mode="on"))
        result = gumbo.execute(query, database, "par")
    finally:
        backend.close()
    assert result.output().tuples() == {(1,)}
    assert result.metrics.wall_elapsed_s > 0
    for metrics in result.metrics.job_metrics.values():
        assert metrics.wall is not None
        assert metrics.wall.backend == "parallel"
        # The kernel ran in the workers, not in-process: a real map wave.
        assert [wave.phase for wave in metrics.wall.waves] == ["map"]


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
    with DifferentialOracle(backends=("serial",), include_dynamic=False) as oracle:
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
