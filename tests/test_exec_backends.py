"""Backends: the multi-process runtime must be indistinguishable from the
serial simulator in everything except measured wall-clock time.

The strategy × workload matrix is ``tests/test_parity.py``.  Here: the
partition helpers, ``make_backend``, the one level loop every backend walks,
the jobs without a batch kernel (skew-aware MSJ, ``kernel_mode="off"``, a
closure-holding user job — all interpreted on the driver), and the measured
wall-clock metrics.  Every comparison of two runs is
``tests/helpers.py::assert_same_run``: identical outputs, ``metrics ==``.
"""

from __future__ import annotations

import zlib

import pytest

from repro import obs
from repro.core.gumbo import Gumbo
from repro.core.options import GumboOptions
from repro.core.skew import SkewAwareMSJJob, detect_heavy_hitters
from repro.core.strategies import build_bsgf_program
from repro.cost.estimates import StatisticsCatalog
from repro.exec import (
    BACKEND_NAMES,
    ExecutionBackend,
    ShardedBackend,
    SimulatedBackend,
    make_backend,
    map_task_chunks,
    partition_index,
    stable_hash,
)
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import MapReduceJob
from repro.obs import metrics as obs_metrics
from repro.model.database import Database
from repro.query.parser import parse_bsgf
from repro.workloads.queries import bsgf_query_set, database_for

from helpers import assert_same_run

#: Worker count used throughout; small so clusters stay cheap on tiny CI boxes.
WORKERS = 2


@pytest.fixture(scope="module")
def parallel_backend():
    """One shared cluster for the whole module (spawn amortised over tests)."""
    backend = make_backend("parallel", engine=MapReduceEngine(), workers=WORKERS)
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def serial_backend():
    return SimulatedBackend(MapReduceEngine())


class TestPartitionHelpers:
    def test_stable_hash_matches_engine_alias(self):
        for key in ((1, 2), ("a",), (None, "x", 3)):
            assert partition_index(key, 7) == stable_hash(key) % 7

    def test_stable_hash_ignores_call_history(self):
        """Equal keys of different type hash by their own ``repr``, whichever
        of them was hashed first (a memo keyed by equality aliased them)."""
        keys = [(1,), (1.0,), (True,)]
        assert keys[0] == keys[1] == keys[2]
        expected = {repr(key): zlib.crc32(repr(key).encode("utf-8")) for key in keys}
        assert len(set(expected.values())) == 3
        for order in (keys, keys[::-1]):
            assert {repr(key): stable_hash(key) for key in order} == expected

    def test_partition_index_in_range_and_deterministic(self):
        keys = [(i, chr(65 + i % 26)) for i in range(50)]
        for key in keys:
            index = partition_index(key, 7)
            assert 0 <= index < 7
            assert index == partition_index(key, 7)
        with pytest.raises(ValueError):
            partition_index((1,), 0)

    def test_map_task_chunks_cover_rows_exactly(self):
        rows = [(i,) for i in range(17)]
        chunks = map_task_chunks(rows, 5)
        assert len(chunks) == 5
        assert sorted(row for chunk in chunks for row in chunk) == rows
        # One (empty) chunk even with no rows.
        assert map_task_chunks([], 3) == [[]]
        with pytest.raises(ValueError):
            map_task_chunks(rows, 0)


class TestMakeBackend:
    def test_by_name_and_alias(self):
        assert isinstance(make_backend("serial"), SimulatedBackend)
        assert isinstance(make_backend("simulated"), SimulatedBackend)
        assert isinstance(make_backend(None), SimulatedBackend)
        # "parallel" and "sharded" name one class; the name asked for sticks.
        for alias, name in (("multiprocessing", "parallel"), ("shard", "sharded")):
            backend = make_backend(alias, workers=1)
            assert isinstance(backend, ShardedBackend)
            assert (backend.name, backend.shards) == (name, 1)
            backend.close()

    def test_instance_passthrough(self, parallel_backend):
        assert make_backend(parallel_backend) is parallel_backend

    def test_instance_conflicts_rejected(self, parallel_backend):
        with pytest.raises(ValueError):
            make_backend(parallel_backend, engine=MapReduceEngine())
        # workers= and shards= are two spellings of the instance's one width.
        for spelling in ("workers", "shards"):
            with pytest.raises(ValueError, match="its own process count"):
                make_backend(parallel_backend, **{spelling: WORKERS + 1})
            # Matching values pass straight through.
            assert (
                make_backend(parallel_backend, **{spelling: WORKERS})
                is parallel_backend
            )
        with pytest.raises(ValueError):
            Gumbo(backend=parallel_backend, workers=WORKERS + 1)
        # By name too: disagreeing spellings are rejected, naming both.
        for name in ("parallel", "sharded"):
            with pytest.raises(ValueError, match="workers=2 and shards=3"):
                make_backend(name, workers=2, shards=3)
        assert (
            make_backend(parallel_backend, engine=parallel_backend.engine)
            is parallel_backend
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_backend("hadoop")
        # The job-level SQL backend is gone; its spellings are ordinary errors.
        with pytest.raises(ValueError, match="unknown execution backend 'sql'"):
            make_backend("sql")
        with pytest.raises(TypeError, match="unexpected keyword"):
            make_backend("serial", **{"sql" "_db": "/tmp/scratch.db"})

    def test_context_manager_closes_pool(self):
        with make_backend("parallel", workers=1) as backend:
            assert isinstance(backend, ExecutionBackend)
            assert backend.cluster.ping()
        assert not backend.cluster.started

    def test_options_thread_backend_selection(self):
        options = GumboOptions(backend="parallel", workers=1)
        gumbo = Gumbo(options=options)
        assert isinstance(gumbo.backend, ShardedBackend)
        assert (gumbo.backend.name, gumbo.backend.shards) == ("parallel", 1)
        gumbo.backend.close()

    def test_gumbo_argument_overrides_options(self):
        gumbo = Gumbo(options=GumboOptions(backend="parallel"), backend="serial")
        assert isinstance(gumbo.backend, SimulatedBackend)

    def test_gumbo_context_manager_releases_pool(self):
        with Gumbo(backend="parallel", workers=1) as gumbo:
            database = Database.from_dict({"R": [(1, 2)], "S": [(1,)]})
            result = gumbo.execute(
                "Z := SELECT (x, y) FROM R(x, y) WHERE S(x);", database
            )
            assert result.output().tuples() == {(1, 2)}
            assert gumbo.backend.cluster.started
        assert not gumbo.backend.cluster.started


class TestExecutionSkeleton:
    """One level loop for every backend: ``ExecutionBackend.run_program``."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_every_backend_walks_the_shared_level_loop(self, name, serial_backend):
        queries = bsgf_query_set("A3")
        database = database_for(queries, guard_tuples=250, selectivity=0.5, seed=3)
        program = build_bsgf_program(queries, "par")
        serial = serial_backend.run_program(program, database)
        with make_backend(name, workers=WORKERS, shards=WORKERS) as backend:
            assert "run_program" not in vars(type(backend))
            with obs.trace("skeleton", enabled=True):
                result = backend.run_program(program, database)
            spans = obs.spans_of(obs.drain_traces())

        assert result.metrics.rounds == serial.metrics.rounds >= 2
        assert_same_run(serial, result, name)

        # Identity is stamped on the program and on every job of it.
        assert result.metrics.backend == name
        assert result.metrics.wall_elapsed_s > 0
        for job_metrics in result.metrics.job_metrics.values():
            assert job_metrics.wall.backend == name
            assert job_metrics.wall.elapsed_s > 0

        # program → level → job, on every backend.
        by_id = {span.span_id: span for span in spans}
        (program_span,) = [span for span in spans if span.name == "program"]
        jobs = [span for span in spans if span.name == "job"]
        assert len(jobs) == len(program)
        for job_span in jobs:
            level_span = by_id[job_span.parent_id]
            assert level_span.name == "level"
            assert level_span.parent_id == program_span.span_id


class _TaggedCopyJob(MapReduceJob):
    """A user job holding a closure: no batch kernel, and not picklable."""

    def __init__(self, tag):
        super().__init__("tagged-copy")
        self.tag = lambda row: row + (tag,)

    def input_relations(self):
        return ["R"]

    def map(self, relation, row):
        return [((row[0],), row)]

    def reduce(self, key, values):
        for row in values:
            yield ("Tagged", self.tag(row))

    def output_schema(self):
        return {"Tagged": 3}


class TestSkewPathParity:
    """Jobs ``use_kernel`` rejects run on the driver's reference interpreter."""

    def test_skew_aware_msj_job(self, serial_backend, parallel_backend):
        # A heavily skewed guard: most rows share join key 1.
        rows = [(1, i) for i in range(120)] + [(i, i) for i in range(2, 30)]
        database = Database.from_dict({"R": rows, "S": [(1,), (5,), (7,)]})
        query = parse_bsgf("Z := SELECT (x, y) FROM R(x, y) WHERE S(x);")
        specs = query.semijoin_specs()
        catalog = StatisticsCatalog(database, sample_size=200)
        report = detect_heavy_hitters(catalog, specs)
        assert report.heavy_keys  # the workload really is skewed
        interpreted = obs_metrics.default_registry().counter(
            "repro_jobs_total", path="interpreted"
        )
        off = GumboOptions(kernel_mode="off")
        for job in (
            SkewAwareMSJJob("skew-msj", specs, report.heavy_keys, salt_factor=4),
            build_bsgf_program([query], "par", options=off).levels()[0][0],
            _TaggedCopyJob("t"),
        ):
            serial = serial_backend.run_job(job, database)
            before = interpreted.value
            parallel = parallel_backend.run_job(job, database)
            assert interpreted.value == before + 1, job.job_id
            assert_same_run(serial, parallel, job.job_id)
            # Stamped by the backend that was asked, though no worker ran.
            wall = parallel.metrics.wall
            assert (wall.backend, wall.workers) == ("parallel", WORKERS)
            assert wall.elapsed_s > 0 and wall.wave_count == 0
