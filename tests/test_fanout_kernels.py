"""Kernels inside the workers: per-chunk ``map_batch`` on the multi-process backend.

On the multi-process backend (``"parallel"`` / ``"sharded"``) a kernel job's
map tasks run ``job.map_batch`` over one map chunk each, inside the workers,
and the driver sums the partial batches and runs ``reduce_batch`` (see
:mod:`repro.service.sharded.backend`).  With the default 128 MB split every
relation of every other test is a single chunk, so none of them sees a
relation arrive as more than one partial batch.  Everything here runs on an
engine whose split is a few hundred bytes at most — at least three chunks
per base relation, spread over two worker shards:

* ledger and partial-batch composition, per kernel job type (and for a
  self-semi-join, whose chunks mix request and assert keys), cut into 1 / 3 /
  7 chunks: bytes, records and ``key_loads()`` equal the interpreted map +
  combiner's, the partials' accounting sums to the whole, and ``reduce_batch``
  over per-chunk partials equals ``reduce_batch`` over whole-relation batches;
* a differential-oracle campaign over every backend on that engine, and
  the same campaign naming the job and field when a mutant misplaces the
  reducers' loads;
* a worker crash landing on a kernel map batch: respawn → resident reload →
  retry → bit-identical;
* the dispatch bookkeeping: one ``path="kernel"`` job count and nothing
  else (``path="interpreted"`` with kernels off), a ``map`` wave plus
  ``reduce`` time on the wall clock, and the worker-side job memo evicting
  one job at a time.

The Section 5 matrix on this engine (serial ``off``/``auto`` vs the workers'
kernels, every workload and strategy) is ``tests/test_parity.py``; every
comparison of two runs is ``tests/helpers.py::assert_same_run``.
"""

from __future__ import annotations

import pickle
from collections import Counter, defaultdict

import pytest

from repro.core.gumbo import Gumbo
from repro.core.options import GumboOptions
from repro.exec import make_backend
from repro.fuzz.generator import FuzzConfig, generate_case
from repro.fuzz.oracle import DifferentialOracle
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.kernels import ChunkLedger
from repro.model.database import Database
from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs.trace import TraceCollector
from repro.query.parser import parse_sgf
from repro.service.sharded import ShardedBackend
from repro.service.sharded.routing import shard_for_chunk
from repro.service.sharded.worker import job_from_blob
from repro.workloads.queries import database_for, workload_query

from helpers import assert_same_run, tiny_split_engine

GUARD_TUPLES = 150

#: SEQ evaluates a disjunction branch by branch and unions the survivors.
UNION_QUERY = (
    "Z := SELECT (x, y) FROM R(x, y, z, w) "
    "WHERE (S(x) AND T(y)) OR (U(z) AND NOT V(w));"
)


# -- partial-batch composition -----------------------------------------------------


def _check_partials_compose(engine, job, database):
    """The ledger's books per input part, and reduce_batch over partials.

    Against the interpreted map + combiner of the same part: equal bytes and
    records from cardinalities alone, ``key_loads()`` equal to the interpreted
    per-key ``Counter`` and summing to the bytes, per-chunk partials adding up
    to the whole; and reduce_batch(per-chunk partials) ==
    reduce_batch(whole-relation batches).
    """
    whole, partials = [], []
    for relation, partition in engine.input_parts(job, database):
        name = partition.relation
        key_bytes = Counter()
        interpreted = engine._run_map_partition(
            job, name, database, defaultdict(list), key_bytes
        )
        chunks = relation.column_chunks(partition.mappers)
        batch = job.map_batch(name, chunks)
        pieces = [job.map_batch(name, [chunk]) for chunk in chunks]
        assert batch.output_records == interpreted.output_records, (job.job_id, name)
        assert batch.intermediate_bytes == sum(key_bytes.values()), (job.job_id, name)
        loads = batch.key_loads()
        assert loads == key_bytes, (job.job_id, name)
        assert sum(loads.values()) == batch.intermediate_bytes
        assert sum(p.intermediate_bytes for p in pieces) == batch.intermediate_bytes
        assert sum(p.output_records for p in pieces) == batch.output_records
        summed = Counter()
        for piece in pieces:
            summed.update(piece.key_loads())
        assert summed == loads
        whole.append(batch)
        partials.extend(pieces)
    expected = {name: set(rows) for name, rows in job.reduce_batch(whole).items()}
    # Pickled like a worker's reply, so nothing leans on shared objects —
    # and like a worker's reply, without the per-key part.
    shipped = pickle.loads(pickle.dumps(partials))
    assert all(piece.ledger is None for piece in shipped)
    got = {name: set(rows) for name, rows in job.reduce_batch(shipped).items()}
    assert got == expected, job.job_id
    return len(partials) - len(whole)


def _engine_cutting(chunks: int) -> MapReduceEngine:
    """The tiny-split engine, every input part cut into exactly *chunks*."""
    engine = tiny_split_engine()
    engine.mappers_for = lambda input_mb: chunks
    return engine


def test_partial_batches_compose_for_every_kernel_job_type():
    for chunks in (1, 3, 7):
        _check_every_kernel_job_type_composes(chunks)


def _check_every_kernel_job_type_composes(chunks):
    engine = _engine_cutting(chunks)
    seen = {}
    for query, strategies in (
        (workload_query("A3"), ("seq", "par", "1-round")),
        (workload_query("C3"), ("greedy-sgf",)),
        (parse_sgf(UNION_QUERY), ("seq",)),
    ):
        database = database_for(
            query, guard_tuples=GUARD_TUPLES, selectivity=0.5, seed=21
        )
        for strategy in strategies:
            for options in (GumboOptions(), GumboOptions(message_packing=False)):
                program = Gumbo(options=options).plan_with(
                    query, database, strategy
                ).program

                def run_job(job, working):
                    extra = _check_partials_compose(engine, job, working)
                    kind = type(job).__name__
                    seen[kind] = seen.get(kind, 0) + extra
                    return engine.run_job(job, working)

                engine.run_program(program, database, run_job=run_job)
    assert set(seen) == {
        "MSJJob",
        "EvalJob",
        "FusedOneRoundJob",
        "SemiJoinChainJob",
        "UnionProjectJob",
    }
    # Every type really saw relations arrive in more than one piece.
    assert all(extra > 0 for extra in seen.values()) == (chunks > 1), seen


@pytest.mark.parametrize("chunks", [1, 3, 7])
def test_self_semi_join_chunk_counts_the_union_of_its_keys(chunks):
    """``R`` is guard *and* conditional of one MSJ job, so a chunk holds
    request keys and assert keys that partly coincide: under packing its
    records are the distinct keys of the *union*, not of either side."""
    query = parse_sgf("Z := SELECT (x, y) FROM R(x, y) WHERE R(y, z);")
    database = Database.from_dict(
        {"R": [(8 + i % 11, (3 * i) % 17) for i in range(187)]}
    )
    engine = _engine_cutting(chunks)
    program = Gumbo().plan_with(query, database, "par").program
    (msj,) = [job for job in program.jobs if type(job).__name__ == "MSJJob"]
    sides = msj.layout.requests + msj.layout.asserts
    assert [side.relation for side in sides] == ["R", "R"]
    assert _check_partials_compose(engine, msj, database) == chunks - 1
    records = 0
    for chunk in database["R"].column_chunks(chunks):
        requested = {(y,) for _, y in chunk.rows()}
        asserted = {(x,) for x, _ in chunk.rows()}
        assert requested & asserted and requested - asserted and asserted - requested
        records += len(requested | asserted)
    batch = msj.map_batch("R", database["R"].column_chunks(chunks))
    assert batch.output_records == records


# -- the differential oracle on a tiny split ---------------------------------------


def _tiny_split_campaign():
    """Six random programs over every backend, every relation multi-chunk.

    Fuzz databases hold a handful of rows, so the split is 16 bytes.
    Returns every divergence the oracle reports.
    """
    config = FuzzConfig(max_statements=3, max_tuples=14)
    divergences = []
    with DifferentialOracle(
        backends=("serial", "parallel", "sharded"),
        workers=2,
        shards=2,
        engine=tiny_split_engine(split_bytes=16),
    ) as oracle:
        for index in range(6):
            case = generate_case(29, index, config)
            divergences += oracle.check(case.program, case.database)
    return divergences


def test_oracle_campaign_on_a_tiny_split_engine():
    divergences = _tiny_split_campaign()
    assert not divergences, "\n".join(str(d) for d in divergences)


def test_oracle_names_the_job_whose_reducer_loads_moved(monkeypatch):
    """Keys placed on the wrong reducers change no headline number.

    The mutant reverses the per-reducer durations of every job the workers'
    backend runs: the same loads on other reducers, so net and total time
    stay put and ``summary()`` cannot see it.  ``metrics ==`` does, and the
    oracle names the job and the field.
    """
    real = ShardedBackend.run_job
    moved = set()

    def misplaced(self, job, database):
        result = real(self, job, database)
        durations = result.metrics.reduce_task_durations
        if durations != durations[::-1]:
            durations.reverse()
            moved.add(job.job_id)
        return result

    monkeypatch.setattr(ShardedBackend, "run_job", misplaced)
    divergences = _tiny_split_campaign()
    assert moved and divergences
    for divergence in divergences:
        assert (divergence.kind, divergence.backend) == ("metrics", "parallel")
        assert any(
            f"job {job_id!r} reduce_task_durations:" in divergence.detail
            for job_id in moved
        ), divergence.detail


# -- no per-key work unless a job spreads over reducers ----------------------------

#: The end-to-end benchmark's five batch shapes.
BATCH_SHAPES = ("A1", "A3", "B2", "C3", "C4")


def _forbid_per_key_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-key work for a job with one reducer")

    monkeypatch.setattr("repro.mapreduce.engine.stable_hash", forbidden)
    monkeypatch.setattr(ChunkLedger, "key_loads", forbidden)


def test_one_reducer_jobs_never_touch_a_key(monkeypatch):
    """A structural stand-in for a timing assert: with the paper's engine every
    job of the five batch shapes has one reducer, so neither the reducer hash
    nor the ledger's per-key derivation may run — in-process or on the tier —
    and no worker reply carries a per-key mapping."""
    runs = {}
    for name in ("serial", "parallel"):
        with make_backend(name, workers=2) as backend:
            replies = []
            if name == "parallel":
                run_tasks = backend.cluster.run_tasks

                def spy(routed):
                    responses = run_tasks(routed)
                    replies.extend(responses)
                    return responses

                monkeypatch.setattr(backend.cluster, "run_tasks", spy)
            with monkeypatch.context() as patch:
                _forbid_per_key_work(patch)
                for query_id in BATCH_SHAPES:
                    query = workload_query(query_id)
                    database = database_for(
                        query, guard_tuples=GUARD_TUPLES, selectivity=0.5, seed=9
                    )
                    result = Gumbo(backend=backend).execute(query, database, "greedy")
                    assert all(
                        metrics.reducers == 1
                        for metrics in result.metrics.job_metrics.values()
                    )
                    runs.setdefault(query_id, []).append(result)
    for query_id, (serial, parallel) in runs.items():
        assert_same_run(serial, parallel, query_id)
    assert replies
    for reply in replies:
        batch = reply.result  # unpickled from the worker's frame
        assert batch.ledger is None
        assert type(batch.intermediate_bytes) is type(batch.output_records) is int


def test_driver_rederives_key_loads_for_multi_reducer_jobs():
    """One chunk per relation (the paper's split) but a reducer allowance small
    enough to spread every job over several reducers: the workers' replies
    carry no loads, so the driver derives them from its own relations — and
    lands on serial's reduce task durations bit for bit.  The second map that
    costs is a ``key_loads`` span (never a second ``map_batch``) and counts
    towards the wall clock's map time."""
    engine = MapReduceEngine(mb_per_reducer_intermediate=1e-3)
    collector = TraceCollector()
    for query_id in BATCH_SHAPES:
        query = workload_query(query_id)
        database = database_for(
            query, guard_tuples=GUARD_TUPLES, selectivity=0.5, seed=9
        )
        results = []
        for name in ("serial", "parallel"):
            with make_backend(name, engine=engine, workers=2) as backend:
                gumbo = Gumbo(backend=backend)
                with obs.trace("run", collector=collector, backend=name):
                    results.append(gumbo.execute(query, database, "greedy"))
        serial, parallel = results
        assert_same_run(serial, parallel, query_id)
        assert any(m.reducers > 1 for m in serial.metrics.job_metrics.values())
        for job_id, metrics in serial.metrics.job_metrics.items():
            tier = parallel.metrics.job_metrics[job_id]
            if metrics.reducers > 1:
                waves = sum(wave.elapsed_s for wave in tier.wall.waves)
                assert tier.wall.map_elapsed_s > waves
    for tracer in collector.drain():
        names = Counter(span.name for span in tracer.spans)
        if tracer.root().attributes["backend"] == "serial":
            assert names["map_batch"] and not names["key_loads"]
        else:
            assert names["key_loads"] and not names["map_batch"]


# -- failure and bookkeeping -----------------------------------------------------------


def test_crash_on_a_kernel_map_batch_is_retried_bit_identically():
    query = workload_query("A3")
    database = database_for(query, guard_tuples=GUARD_TUPLES, selectivity=0.5, seed=4)
    engine = tiny_split_engine()
    serial = Gumbo(backend=make_backend("serial", engine=engine)).execute(
        query, database, "greedy"
    )
    with make_backend("parallel", engine=engine, workers=2) as backend:
        gumbo = Gumbo(backend=backend)  # kernel_mode="auto": kernel map tasks
        assert_same_run(serial, gumbo.execute(query, database, "greedy"))
        # Shard 0 owns some but not all chunks of the guard relation.
        guard = database["R"]
        owners = {
            shard_for_chunk("R", index, 2)
            for index in range(engine.mappers_for(guard.size_mb()))
        }
        assert owners == {0, 1}
        backend.cluster.inject_crash(0)
        assert_same_run(serial, gumbo.execute(query, database, "greedy"))
        assert backend.cluster.respawns == 1
        assert backend.cluster.retries == 1
        assert backend.ensure_loaded(database) == 0  # reloaded, still warm


@pytest.mark.parametrize("name", ["parallel", "sharded"])
def test_worker_kernel_job_bookkeeping(name):
    """One ``path="kernel"`` count per job and no other; the dispatch is a
    ``map`` wave and the driver's ``reduce_batch`` is the ``reduce`` time.
    With kernels off the same jobs count as ``path="interpreted"`` and no
    worker is asked.  Either name labels the metrics it was asked under."""
    query = workload_query("A1")
    database = database_for(query, guard_tuples=GUARD_TUPLES, selectivity=0.5, seed=2)
    registry = obs_metrics.default_registry()
    paths = ("kernel", "interpreted", "fanout", "sharded")

    def counts():
        return {
            path: registry.counter("repro_jobs_total", path=path).value
            for path in paths
        }

    with make_backend(name, engine=tiny_split_engine(), workers=2) as backend:
        for mode, path in (("auto", "kernel"), ("off", "interpreted")):
            before = counts()
            gumbo = Gumbo(backend=backend, options=GumboOptions(kernel_mode=mode))
            result = gumbo.execute(query, database, "greedy")
            bumped = {key: value - before[key] for key, value in counts().items()}
            jobs = len(result.metrics.job_metrics)
            assert bumped == {**dict.fromkeys(paths, 0), path: jobs}
            summary = result.metrics.wall_summary()
            assert summary["backend"] == name
            assert (summary["wall_map_s"] > 0) == (mode == "auto")
            for metrics in result.metrics.job_metrics.values():
                wall = metrics.wall
                assert (wall.backend, wall.workers) == (name, 2)
                if mode == "off":
                    assert not wall.waves
                    continue
                # The kernel ran in the workers: one map wave, no reduce wave.
                assert [wave.phase for wave in wall.waves] == ["map"]
                assert wall.map_elapsed_s > 0 and wall.reduce_elapsed_s > 0
                phases = wall.map_elapsed_s + wall.reduce_elapsed_s
                assert wall.elapsed_s >= phases - 1e-9


def test_job_memo_evicts_one_job_at_a_time():
    """More distinct jobs than the memo holds must not flush the hot ones."""
    job_from_blob.cache_clear()
    capacity = job_from_blob.cache_info().maxsize
    blobs = [pickle.dumps(("job", index)) for index in range(capacity + 1)]
    hot = job_from_blob(blobs[0])
    for blob in blobs[1:capacity]:
        job_from_blob(blob)
    assert job_from_blob(blobs[0]) is hot  # refreshed: most recent now
    job_from_blob(blobs[capacity])  # one over: evicts blobs[1] only
    assert job_from_blob(blobs[0]) is hot
    misses = job_from_blob.cache_info().misses
    job_from_blob(blobs[2])
    assert job_from_blob.cache_info().misses == misses
    job_from_blob(blobs[1])
    assert job_from_blob.cache_info().misses == misses + 1
    job_from_blob.cache_clear()
