"""The parity contract, once: every axis of execution gives the same run.

Every Section 5 workload (A1–C4), at the paper's 128 MB split and at a
420-byte split, under every applicable strategy (plus dynamic re-planning on
C1–C4), runs on three axes: ``serial`` with kernels off (the reference
interpreter), ``serial`` with kernels on, and ``parallel`` (kernels'
``map_batch`` in two workers; ``sharded`` names the same class).  Each axis
must give the first one's outputs and ``metrics ==``: every simulated field
of every job, the wall clock aside.  At the tiny split every base relation
is three or more chunks, so partial batches and multi-reducer jobs are
exercised; at the paper split each is a single chunk.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.core.gumbo import Gumbo
from repro.core.options import GumboOptions
from repro.core.strategies import applicable_strategies
from repro.exec import make_backend
from repro.mapreduce.engine import MapReduceEngine
from repro.workloads.queries import database_for, section5_workloads, workload_query

from helpers import assert_same_run, tiny_split_engine

#: Pseudo-strategy: ``Gumbo.execute_dynamic`` instead of a fixed plan.
DYNAMIC = "dynamic"

#: (backend, kernel mode) pairs; every axis is compared with the first.
AXES = (("serial", "off"), ("serial", "auto"), ("parallel", "auto"))


def _cases():
    for query_id, query in section5_workloads():
        strategies = applicable_strategies(query)
        if query_id.startswith("C"):
            strategies = [*strategies, DYNAMIC]
        for strategy in strategies:
            yield query_id, strategy


@lru_cache(maxsize=None)
def _database(query_id):
    return database_for(
        workload_query(query_id), guard_tuples=150, selectivity=0.5, seed=17
    )


@pytest.fixture(scope="module", params=["paper", "tiny"])
def split(request):
    """The split's name and its serial and parallel(2) backends."""
    engine = tiny_split_engine() if request.param == "tiny" else MapReduceEngine()
    backends = {
        name: make_backend(name, engine=engine, workers=2)
        for name in ("serial", "parallel")
    }
    yield request.param, backends
    for backend in backends.values():
        backend.close()


@pytest.mark.parametrize("query_id,strategy", list(_cases()))
def test_every_axis_gives_the_same_run(split, query_id, strategy):
    split_name, backends = split
    query, database = workload_query(query_id), _database(query_id)
    first = None
    for name, mode in AXES:
        gumbo = Gumbo(backend=backends[name], options=GumboOptions(kernel_mode=mode))
        if strategy == DYNAMIC:
            result = gumbo.execute_dynamic(query, database)
        else:
            result = gumbo.execute(query, database, strategy)
        context = f"{split_name}:{query_id}:{strategy}:{name}/{mode}"
        assert result.metrics.backend == name, context
        assert result.metrics.wall_elapsed_s > 0, context
        if first is None:
            first = result
            chunks = [
                partition.mappers
                for metrics in result.metrics.job_metrics.values()
                for partition in metrics.partitions
                if partition.relation in database
            ]
            if split_name == "tiny":
                assert min(chunks) >= 3, context
            else:
                assert set(chunks) == {1}, context
        else:
            assert_same_run(first, result, context)
