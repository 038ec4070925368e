"""The unified client API (``repro.connect``) and the shared
:class:`ExecutionConfig` bundle.

Covers the two API-surface satellites of the service-tier redesign:

* ``connect()`` accepts every database shape (built ``Database``, plain
  mapping, CSV directory path), every backend by name, and returns one
  ``Connection`` whose queries all come back as the single ``Result`` type
  — while the historical entry points (``Gumbo``, ``QueryService``) keep
  working underneath;
* ``ExecutionConfig`` is the one validated configuration consumed by the
  CLI, the query service and the fuzzer oracle: construction-time
  validation, argparse lifting, lowering to ``GumboOptions``, backend
  construction;
* batched submissions propagate per-query failures as results
  (``BatchResult.failures``) instead of aborting the batch, and the
  failures land in ``ServiceStats.queries_failed``.
"""

from __future__ import annotations

import argparse
import os
import sys

import pytest

import repro
from repro import Connection, ExecutionConfig, Gumbo, Result, connect
from repro.core.options import GumboOptions
from repro.exec import SimulatedBackend
from repro.io import save_database
from repro.model.database import Database
from repro.service import BatchFailure, QueryService
from repro.service.sharded import ShardedBackend

QUERY = "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y);"
DB = {
    "R": [(1, 2), (3, 4), (5, 6), (7, 8)],
    "S": [(1,), (3,), (5,)],
    "T": [(4,)],
}
EXPECTED = {(1, 2), (5, 6)}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- ExecutionConfig -----------------------------------------------------------------


class TestExecutionConfig:
    def test_defaults_and_normalisation(self):
        config = ExecutionConfig()
        assert config.backend == "serial"
        assert ExecutionConfig(backend="mp").backend == "parallel"
        assert ExecutionConfig(backend="shards").backend == "sharded"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "hadoop"},
            {"workers": 0},
            {"shards": 0},
            {"shards": -3},
            {"nodes": 0},
            {"kernel_mode": "maybe"},
        ],
    )
    def test_invalid_values_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionConfig(**kwargs)

    def test_from_cli_args_lifts_any_namespace(self):
        """Attributes a subcommand doesn't define fall back to defaults."""
        full = argparse.Namespace(
            backend="sharded",
            workers=None,
            shards=4,
            kernel_mode="on",
            strategy="greedy",
            nodes=5,
            no_packing=True,
            no_tuple_reference=False,
            trace=False,
            trace_out="spans.jsonl",
        )
        config = ExecutionConfig.from_cli_args(full)
        assert config.backend == "sharded"
        assert config.shards == 4
        assert config.kernel_mode == "on"
        assert config.strategy == "greedy"
        assert config.nodes == 5
        assert config.message_packing is False
        assert config.tuple_reference is True
        assert config.trace is True  # --trace-out implies tracing

        sparse = ExecutionConfig.from_cli_args(argparse.Namespace())
        assert sparse == ExecutionConfig()

    def test_to_options_round_trip(self):
        config = ExecutionConfig(
            backend="parallel", workers=3, strategy="seq", kernel_mode="off"
        )
        options = config.to_options()
        assert isinstance(options, GumboOptions)
        assert options.backend == "parallel"
        assert options.workers == 3
        assert options.default_strategy == "seq"
        assert options.kernel_mode == "off"

    def test_make_backend_builds_the_configured_backend(self):
        assert isinstance(ExecutionConfig().make_backend(), SimulatedBackend)
        # Two names and two spellings of the width, one class.
        with ExecutionConfig(backend="parallel", workers=1).make_backend() as b:
            assert isinstance(b, ShardedBackend)
            assert (b.name, b.shards) == ("parallel", 1)
        with ExecutionConfig(backend="sharded", shards=2).make_backend() as b:
            assert isinstance(b, ShardedBackend)
            assert (b.name, b.shards) == ("sharded", 2)

    def test_with_backend_keeps_the_other_knobs(self):
        config = ExecutionConfig(workers=3, shards=5, kernel_mode="off")
        swapped = config.with_backend("sharded")
        assert swapped.backend == "sharded"
        assert swapped.shards == 5
        assert swapped.workers == 3
        assert swapped.kernel_mode == "off"
        assert config.backend == "serial"  # original untouched (frozen)

    def test_query_service_accepts_config_exclusively(self):
        database = Database.from_dict(DB)
        with QueryService(database, config=ExecutionConfig(strategy="seq")) as svc:
            assert svc.execute(QUERY).outputs["Z"].tuples() == EXPECTED
        with pytest.raises(ValueError):
            QueryService(database, config=ExecutionConfig(), backend="serial")
        with pytest.raises(ValueError):
            QueryService(database, config=ExecutionConfig(), workers=2)
        with pytest.raises(ValueError):
            QueryService(
                database, config=ExecutionConfig(), options=GumboOptions()
            )


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
        config = ExecutionConfig(backend="parallel", workers=1)
        options = GumboOptions(backend="parallel", workers=1)
        with pytest.raises(ValueError):
            connect(DB, config=config, backend="serial")
        with pytest.raises(ValueError):
            connect(DB, config=config, options=options)
        with pytest.raises(ValueError):
            connect(DB, options=options, workers=2)
        # config= and options= alone are honoured.
        with connect(DB, config=config) as conn:
            assert conn.backend == "parallel"
        with connect(DB, options=options) as conn:
            assert conn.backend == "parallel"

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
            f"conn = repro.connect({DB!r}, backend='parallel', workers=2,"
            " data_plane='shm')\n"
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
        for name in ("Connection", "Result", "ExecutionConfig", "connect"):
            assert name in repro.__all__

    def test_old_entry_points_still_work(self):
        """The deprecation is soft: Gumbo and QueryService stay supported."""
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
