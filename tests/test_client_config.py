"""The unified client API (``repro.connect``) and its one options type,
:class:`GumboOptions`.

Covers the two API-surface satellites of the service-tier redesign:

* ``connect()`` accepts every database shape (built ``Database``, plain
  mapping, CSV directory path), every backend by name, and returns one
  ``Connection`` whose queries all come back as the single ``Result`` type
  — while the layers it wraps (``Gumbo``, ``QueryService``) stay buildable
  directly;
* ``GumboOptions`` is the one options type of every entry point: the CLI
  lifts its flags into one (``_options_from_args``), ``connect`` passes it
  down unchanged, and each value is checked where it is used — backend
  names and worker counts by ``make_backend`` (and the shard cluster),
  kernel modes by ``GumboOptions`` itself, node counts by ``ClusterConfig``;
* batched submissions propagate per-query failures as results
  (``BatchResult.failures``) instead of aborting the batch, and the
  failures land in ``ServiceStats.queries_failed``.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import threading

import pytest

import repro
from repro import Connection, Gumbo, Result, connect, make_backend
from repro.cli import _options_from_args
from repro.core.options import GumboOptions
from repro.exec import SimulatedBackend
from repro.exec.base import normalise_backend
from repro.io import save_database
from repro.mapreduce.cluster import ClusterConfig
from repro.model.database import Database
from repro.service import BatchFailure, QueryService
from repro.service.sharded import ShardedBackend, ShardedService

QUERY = "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y);"
DB = {
    "R": [(1, 2), (3, 4), (5, 6), (7, 8)],
    "S": [(1,), (3,), (5,)],
    "T": [(4,)],
}
EXPECTED = {(1, 2), (5, 6)}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- GumboOptions and where its values are checked ----------------------------------


class TestOptions:
    def test_defaults_and_normalisation(self):
        assert GumboOptions().backend == "serial"
        assert normalise_backend("mp") == "parallel"
        assert normalise_backend("shards") == "sharded"
        with make_backend("mp", workers=1) as backend:
            assert backend.name == "parallel"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_backend("hadoop"),
            lambda: make_backend("parallel", workers=0),
            lambda: make_backend("sharded", shards=0),
            lambda: make_backend("sharded", shards=-3),
            lambda: ClusterConfig(nodes=0),
            lambda: GumboOptions(kernel_mode="maybe"),
            lambda: GumboOptions(kernel_mode="on"),
        ],
        ids=[
            "backend",
            "workers",
            "shards",
            "negative-shards",
            "nodes",
            "kernel-mode",
            "kernel-mode-on",
        ],
    )
    def test_invalid_values_rejected_at_construction(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize(
        "build, bound",
        [
            (lambda: make_backend("parallel", workers=0), ">= 1"),
            (
                lambda: Gumbo(options=GumboOptions(backend="parallel", workers=-1)),
                ">= 1",
            ),
            (lambda: ShardedService.create(Database.from_dict(DB), shards=0), ">= 1"),
            (lambda: connect(DB, workers=0), ">= 1"),
            (lambda: QueryService(Database.from_dict(DB), max_workers=0), ">= 1"),
            (lambda: connect(DB, max_workers=-2), ">= 1"),
            (
                lambda: ShardedService.create(
                    Database.from_dict(DB), max_concurrency=0
                ),
                ">= 1",
            ),
            (
                lambda: ShardedService.create(Database.from_dict(DB), max_queue=-1),
                ">= 0",
            ),
            (lambda: QueryService(Database.from_dict(DB), max_queue=-1), ">= 0"),
            (
                lambda: QueryService(Database.from_dict(DB), request_timeout_s=0),
                "> 0",
            ),
        ],
        ids=[
            "make_backend",
            "Gumbo",
            "ShardedService.create",
            "connect",
            "QueryService-max_workers",
            "connect-max_workers",
            "ShardedService.create-max_concurrency",
            "ShardedService.create-max_queue",
            "QueryService-max_queue",
            "QueryService-request_timeout_s",
        ],
    )
    def test_width_below_one_is_rejected_at_every_entry_point(self, build, bound):
        """Each entry point raises the same error, and starts no worker.

        Pool widths (processes and threads) must be >= 1; the service's
        wait queue may be empty but not negative, and a request timeout
        must be positive.
        """
        processes = set(multiprocessing.active_children())
        threads = set(threading.enumerate())
        with pytest.raises(ValueError, match=f"must be {bound}, got"):
            build()
        assert set(multiprocessing.active_children()) <= processes
        assert set(threading.enumerate()) <= threads

    def test_options_from_args_lifts_any_namespace(self):
        """Flags a subcommand doesn't define fall back to the defaults."""
        full = argparse.Namespace(
            backend="sharded",
            workers=None,
            shards=4,
            kernel_mode="off",
            strategy="seq",
            nodes=5,
            no_packing=True,
            no_tuple_reference=False,
            trace=False,
            trace_out="spans.jsonl",
        )
        options = _options_from_args(full)
        assert options.backend == "sharded"
        assert options.shards == 4
        assert options.kernel_mode == "off"
        assert options.default_strategy == "seq"
        assert options.message_packing is False
        assert options.tuple_reference is True
        assert options.trace is True  # --trace-out implies tracing

        assert _options_from_args(argparse.Namespace()) == GumboOptions()

    def test_make_backend_builds_the_configured_backend(self):
        assert isinstance(make_backend(), SimulatedBackend)
        # Two names and two spellings of the width, one class.
        with make_backend("parallel", workers=1) as backend:
            assert isinstance(backend, ShardedBackend)
            assert (backend.name, backend.shards) == ("parallel", 1)
        with make_backend("sharded", shards=2) as backend:
            assert isinstance(backend, ShardedBackend)
            assert (backend.name, backend.shards) == ("sharded", 2)


# -- connect() / Connection / Result -------------------------------------------------


class TestConnect:
    def test_connect_from_mapping(self):
        with connect(DB) as conn:
            assert isinstance(conn, Connection)
            result = conn.execute(QUERY)
            assert isinstance(result, Result)
            assert result.tuples() == EXPECTED
            assert result.backend == "serial"

    def test_connect_from_database_and_path(self, tmp_path):
        database = Database.from_dict(DB)
        with connect(database) as conn:
            assert conn.database is database
            assert conn.execute(QUERY).tuples() == EXPECTED
        save_database(database, tmp_path)
        with connect(str(tmp_path)) as conn:
            assert conn.execute(QUERY).tuples() == EXPECTED

    @pytest.mark.parametrize("backend", ["serial", "parallel", "sharded"])
    def test_every_backend_by_name(self, backend):
        kwargs = {"workers": 1} if backend == "parallel" else {}
        if backend == "sharded":
            kwargs = {"shards": 2}
        with connect(DB, backend=backend, **kwargs) as conn:
            result = conn.execute(QUERY)
            assert result.tuples() == EXPECTED
            assert conn.backend == backend
            assert result.backend == backend

    def test_result_surface(self):
        with connect(DB) as conn:
            result = conn.execute(QUERY)
            assert set(result.outputs) == {"Z"}
            assert result.output().tuples() == EXPECTED
            assert result.output("Z").name == "Z"
            assert result.strategy in {"seq", "par", "greedy", "1-round"}
            assert result.fingerprint
            assert result.plan_cached is False
            assert result.exec_s >= 0.0
            assert result.metrics.backend == "serial"
            assert "Z=2" in repr(result)
            # One result type, whichever layer served the query.
            assert type(result) is Result is type(conn.service.execute(QUERY))
            # Second serve of the same query hits the plan cache.
            assert conn.execute(QUERY).plan_cached is True

    def test_output_requires_name_when_ambiguous(self):
        program = (
            "Z1 := SELECT (x) FROM R(x, y) WHERE S(x);\n"
            "Z2 := SELECT (y) FROM R(x, y) WHERE T(y);"
        )
        with connect(DB) as conn:
            result = conn.execute(program)
            assert set(result.outputs) == {"Z1", "Z2"}
            with pytest.raises(ValueError):
                result.output()
            assert result.tuples("Z2") == {(4,)}

    def test_output_by_name_reaches_intermediate_outputs(self):
        program = (
            "Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x);\n"
            "Z2 := SELECT (x, y) FROM Z1(x, y) WHERE NOT T(y);"
        )
        with connect(DB) as conn:
            result = conn.execute(program)
            assert set(result.outputs) == {"Z2"}  # the one root
            assert result.tuples() == EXPECTED
            assert result.tuples("Z1") == {(1, 2), (3, 4), (5, 6)}

    def test_materialize_and_refresh(self):
        with connect(DB) as conn:
            conn.materialize(QUERY)
            assert conn.refresh("R", [(9, 10)]) == 1
            served = conn.execute(QUERY)
            assert served.plan_cached  # served from the materialization
            assert served.tuples() == EXPECTED  # 9 ∉ S: result unchanged
            assert conn.refresh("S", [(9,)]) == 1
            assert conn.execute(QUERY).tuples() == EXPECTED | {(9, 10)}

    def test_knob_exclusivity_rules(self):
        options = GumboOptions(backend="parallel", workers=1)
        with pytest.raises(ValueError):
            connect(DB, options=options, workers=2)
        # options= alone is passed down unchanged; backend= overrides it.
        with connect(DB, options=options) as conn:
            assert conn.options is options
            assert conn.backend == "parallel"
        with connect(DB, options=options, backend="serial") as conn:
            assert conn.backend == "serial"
            assert conn.options.backend == "serial"

    def test_served_strategy_precedence(self):
        """strategy= wins, then options.default_strategy, then AUTO."""
        seq = GumboOptions(default_strategy="seq")
        with connect(DB, options=seq) as conn:
            assert conn.service.default_strategy == "seq"
            assert conn.service.gumbo.options.default_strategy == "seq"
            assert conn.execute(QUERY).strategy == "seq"
        with connect(DB, options=seq, strategy="par") as conn:
            assert conn.service.default_strategy == "par"
            assert conn.service.gumbo.options.default_strategy == "par"
        with connect(DB) as conn:
            assert conn.service.default_strategy == "auto"
            assert conn.options.default_strategy == "auto"

    @pytest.mark.parametrize("knob", ["workers", "shards"])
    @pytest.mark.parametrize("override", [{"options": GumboOptions()}], ids=["options"])
    def test_zero_knob_conflicts_with_an_override(self, knob, override):
        """A 0 is a value, not an absent knob: it clashes with options=
        exactly as a 3 would, instead of being silently dropped."""
        with pytest.raises(ValueError, match="not both"):
            connect(DB, **override, **{knob: 0})

    def test_close_is_idempotent_and_context_managed(self):
        conn = connect(DB)
        assert not conn.closed
        conn.close()
        conn.close()
        assert conn.closed

        # Closing a parallel connection leaves no child process and no
        # repro_* segment behind — judged by the end-to-end benchmark's sweep.
        sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))
        try:
            import procs
        finally:
            del sys.path[0]

        script = (
            "import multiprocessing, repro\n"
            f"conn = repro.connect({DB!r}, backend='parallel', workers=2)\n"
            f"assert conn.execute({QUERY!r}).tuples() == {EXPECTED!r}\n"
            "assert len(multiprocessing.active_children()) == 2\n"
            "conn.close()\n"
            "assert not multiprocessing.active_children()\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        outcome = procs.run_child([sys.executable, "-c", script], env, 60.0)
        assert outcome.returncode == 0 and not outcome.timed_out
        assert (outcome.leaked_processes, outcome.leaked_shm_segments) == (0, 0)

    def test_facade_is_exported_at_top_level(self):
        assert repro.connect is connect
        for name in ("Connection", "Result", "GumboOptions", "connect"):
            assert name in repro.__all__

    def test_old_entry_points_still_work(self):
        """The layers under connect() stay buildable directly, and their
        docstrings point at the front door."""
        database = Database.from_dict(DB)
        assert Gumbo().execute(QUERY, database).output().tuples() == EXPECTED
        with QueryService(database) as service:
            assert service.execute(QUERY).outputs["Z"].tuples() == EXPECTED
        assert "repro.connect" in (Gumbo.__doc__ or "")
        assert "repro.connect" in (QueryService.__doc__ or "")


# -- batch failure propagation -------------------------------------------------------


class TestBatchFailures:
    def test_one_failure_does_not_abort_the_batch(self):
        """The regression the redesign fixes: a bad query used to poison the
        whole batch; now it is reported alongside the other results."""
        queries = [
            QUERY,
            "THIS IS NOT SGF ::=",
            "Z2 := SELECT (x) FROM R(x, y) WHERE S(x);",
        ]
        with connect(DB) as conn:
            batch = conn.service.execute_many(queries)
            assert len(batch.results) == 2
            assert len(batch.failures) == 1
            assert not batch.ok
            failure = batch.failures[0]
            assert isinstance(failure, BatchFailure)
            assert failure.index == 1
            assert failure.error and isinstance(failure.exception, Exception)
            assert batch.results[0].outputs["Z"].tuples() == EXPECTED
            assert batch.results[1].outputs["Z2"].tuples() == {(1,), (3,), (5,)}
            assert batch.summary()["failures"] == 1
            assert conn.stats().queries_failed == 1

    def test_clean_batch_is_ok(self):
        with connect(DB) as conn:
            batch = conn.service.execute_many([QUERY, QUERY])
            assert batch.ok
            assert batch.failures == ()
            assert conn.stats().queries_failed == 0

    def test_connection_facade_raises_the_first_failure(self):
        with connect(DB) as conn:
            results = conn.execute_many([QUERY, QUERY])
            assert all(r.tuples() == EXPECTED for r in results)
            with pytest.raises(Exception) as excinfo:
                conn.execute_many([QUERY, "NOT SGF ::="])
            assert conn.stats().queries_failed == 1
            assert not isinstance(excinfo.value, AssertionError)
