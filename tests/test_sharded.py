"""The sharded persistent worker tier: routing math, RPC framing, warm
runs, worker supervision, the asyncio front-end and a differential fuzz
campaign.

The tier's core contract mirrors the other backends': outputs and simulated
metrics must be *bit-identical* to the serial simulator on every Section 5
workload — sharding may only change wall-clock time and which process holds
which rows.  That matrix is ``tests/test_parity.py`` (``sharded`` and
``parallel`` name one class); every comparison here is
``tests/helpers.py::assert_same_run``.  On top of that the tier adds its own
promises, each tested here: placement is a pure function of ``stable_hash``
(so re-partitioning on a shard-count change is exact re-evaluation), a
worker killed mid-request is respawned and its batch retried without the
caller noticing, deterministic worker errors are raised (never retried into
silence), and the front-end sheds load beyond its admission limit instead of
queueing unboundedly.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import signal
import socket
import struct
import time

import pytest

from repro.core.gumbo import Gumbo
from repro.exec import SimulatedBackend, partition_index
from repro.fuzz import FuzzOptions, run_fuzz
from repro.mapreduce.engine import MapReduceEngine
from repro.model.database import Database
from repro.model.relation import Relation
from repro.service.sharded import (
    RequestTimeoutError,
    ServiceOverloadedError,
    ShardCluster,
    ShardedBackend,
    ShardedService,
)
from repro.service.sharded.cluster import ShardedExecutionError
from repro.service.sharded.routing import chunk_assignment, shard_for_chunk
from repro.service.sharded.rpc import (
    FrameTooLargeError,
    MapTask,
    Ok,
    Ping,
    decode_frame,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.workloads.queries import bsgf_query_set, database_for, workload_query

from helpers import assert_same_run

#: Shard count used throughout; small so clusters stay cheap on CI boxes.
SHARDS = 2


@pytest.fixture(scope="module")
def serial_backend():
    return SimulatedBackend(MapReduceEngine())


@pytest.fixture(scope="module")
def sharded_backend():
    """One shared cluster for the whole module (spawn amortised over tests)."""
    backend = ShardedBackend(MapReduceEngine(), shards=SHARDS)
    yield backend
    backend.close()


# -- RPC framing ---------------------------------------------------------------------


class TestFraming:
    def test_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            messages = [
                Ping(),
                Ok(info={"shard": 1}),
                MapTask(task_id=3, job_blob=b"x", relation="R", chunk_index=0),
            ]
            for message in messages:
                send_frame(left, message)
            for message in messages:
                assert recv_frame(right) == message
        finally:
            left.close()
            right.close()

    def test_encode_decode_are_inverse(self):
        frame = encode_frame(Ok(info=[1, "a", None]))
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert decode_frame(frame[4:]) == Ok(info=[1, "a", None])

    def test_oversized_header_is_rejected_not_allocated(self):
        """A corrupt header claiming a huge frame raises instead of allocating."""
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", (1 << 30) + 1) + b"junk")
            with pytest.raises(FrameTooLargeError):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    @staticmethod
    def _message_of_exact_frame_size(target: int) -> Ok:
        """An ``Ok`` whose pickled frame payload is exactly *target* bytes."""
        overhead = len(pickle.dumps(Ok(info=b""), pickle.HIGHEST_PROTOCOL))
        # Pickle's length prefixes can shift by a few bytes at size
        # boundaries; walk the payload size until the encoding lands exactly
        # on target.
        for padding in range(max(0, target - overhead - 8), target):
            message = Ok(info=b"x" * padding)
            if len(pickle.dumps(message, pickle.HIGHEST_PROTOCOL)) == target:
                return message
        raise AssertionError(f"no payload size pickles to exactly {target} bytes")

    def test_frame_exactly_at_cap_is_legal(self, monkeypatch):
        """The 1 GiB cap is inclusive: an exactly-at-cap frame round-trips on
        both the encode and the decode side (tested with a shrunk cap)."""
        from repro.service.sharded import rpc

        monkeypatch.setattr(rpc, "MAX_FRAME_BYTES", 4096)
        message = self._message_of_exact_frame_size(4096)
        frame = rpc.encode_frame(message)
        assert len(frame) == 4 + 4096
        left, right = socket.socketpair()
        try:
            left.sendall(frame)
            assert recv_frame(right) == message
        finally:
            left.close()
            right.close()

    def test_frame_one_byte_over_cap_raises_typed_error(self, monkeypatch):
        """Cap + 1 raises FrameTooLargeError — on encode, on the worker's
        blocking decode, and on the parent's asyncio decode — never a bare
        struct/overflow error."""
        from repro.service.sharded import rpc

        monkeypatch.setattr(rpc, "MAX_FRAME_BYTES", 4096)
        over = self._message_of_exact_frame_size(4097)
        with pytest.raises(FrameTooLargeError):
            rpc.encode_frame(over)
        # A forged header claiming cap+1 bytes must be rejected before any
        # allocation, with the typed error, on both receive paths.
        forged = struct.pack(">I", 4097) + b"junk"
        left, right = socket.socketpair()
        try:
            left.sendall(forged)
            with pytest.raises(FrameTooLargeError):
                recv_frame(right)
        finally:
            left.close()
            right.close()

        async def _async_side():
            reader = asyncio.StreamReader()
            reader.feed_data(forged)
            reader.feed_eof()
            with pytest.raises(FrameTooLargeError):
                await rpc.read_frame_async(reader)

        asyncio.run(_async_side())

    def test_header_width_covers_the_cap(self):
        """The 4-byte unsigned header can express the inclusive cap."""
        from repro.service.sharded import rpc

        assert rpc.MAX_FRAME_BYTES == 1 << 30
        assert rpc.MAX_FRAME_BYTES <= 0xFFFFFFFF
        assert struct.unpack(">I", struct.pack(">I", rpc.MAX_FRAME_BYTES))[0] == (
            rpc.MAX_FRAME_BYTES
        )

    def test_truncated_stream_raises_connection_error(self):
        left, right = socket.socketpair()
        try:
            frame = encode_frame(Ping())
            left.sendall(frame[: len(frame) - 2])
            left.close()
            with pytest.raises(ConnectionError):
                recv_frame(right)
        finally:
            right.close()


# -- routing math --------------------------------------------------------------------


class TestRouting:
    def test_placement_is_the_shared_partition_function(self):
        """Chunk placement is exactly a ``partition_index`` call — the same
        CRC-32 hash that places shuffle keys on reducers."""
        for relation in ("R", "S", "Edge_2"):
            for chunk in range(20):
                assert shard_for_chunk(relation, chunk, 5) == partition_index(
                    (relation, chunk), 5
                )

    def test_placement_in_range_and_deterministic(self):
        for shards in (1, 2, 3, 7):
            for chunk in range(50):
                shard = shard_for_chunk("R", chunk, shards)
                assert 0 <= shard < shards
                assert shard == shard_for_chunk("R", chunk, shards)

    def test_assignment_partitions_chunks_exactly(self):
        """Every chunk appears on exactly one shard; every shard has an entry."""
        for shards in (1, 2, 4):
            assignment = chunk_assignment("R", 23, shards)
            assert set(assignment) == set(range(shards))
            flat = sorted(i for chunks in assignment.values() for i in chunks)
            assert flat == list(range(23))

    def test_chunk_placement_independent_of_chunk_count(self):
        """Adding chunks never moves existing ones (placement ignores the
        total), so growing a relation extends the layout instead of
        reshuffling it."""
        small = chunk_assignment("R", 8, 3)
        large = chunk_assignment("R", 16, 3)
        for shard in range(3):
            assert large[shard][: len(small[shard])] == small[shard]

    def test_repartition_on_shard_count_change_is_pure_reevaluation(self):
        """The layout for a new shard count *is* ``chunk_assignment`` for it —
        no state, no migration log, just the pure function re-evaluated."""
        for shards in (2, 3, 5):
            assignment = chunk_assignment("R", 30, shards)
            for shard, chunks in assignment.items():
                for chunk in chunks:
                    assert shard_for_chunk("R", chunk, shards) == shard

    @pytest.mark.parametrize("shards", [2, 3])
    def test_cluster_inventory_matches_the_pure_assignment(self, shards):
        """What the live workers actually hold equals the routing math."""
        queries = bsgf_query_set("A1")
        database = database_for(queries, guard_tuples=200, selectivity=0.5, seed=3)
        with ShardedBackend(shards=shards) as backend:
            assert backend.ensure_loaded(database) == len(
                [r for r in database if len(r)]
            )
            inventory = backend.cluster.inventory()
            assert set(inventory) == set(range(shards))
            for relation in database:
                if len(relation) == 0:
                    continue
                mappers = backend.engine.mappers_for(relation.size_mb())
                chunk_count = len(relation.column_chunks(mappers))
                expected = chunk_assignment(relation.name, chunk_count, shards)
                for shard in range(shards):
                    held = inventory[shard].get(relation.name, [])
                    assert held == expected[shard], (relation.name, shard)


# -- serial parity of warm runs ------------------------------------------------------


class TestShardedParity:
    def test_warm_second_run_ships_nothing(self, serial_backend, sharded_backend):
        """The second run over the same database finds every relation resident
        (copy-on-write identity), ships zero relations, and still matches."""
        queries = bsgf_query_set("A1")
        database = database_for(queries, guard_tuples=150, selectivity=0.5, seed=2)
        gumbo = Gumbo(backend=sharded_backend)
        first = gumbo.execute(queries, database, "greedy")
        assert sharded_backend.ensure_loaded(database) == 0  # all warm now
        second = gumbo.execute(queries, database, "greedy")
        assert_same_run(first, second)
        serial = Gumbo(backend=serial_backend).execute(queries, database, "greedy")
        assert_same_run(serial, second)

    def test_warm_runs_sort_no_relation(self, sharded_backend, monkeypatch):
        """Residency is asked by name before any column block is built: warm
        runs sort neither a resident base relation nor an intermediate
        (never resident, and read as one chunk here)."""
        query = workload_query("C3")
        database = database_for(query, guard_tuples=200, seed=2)
        gumbo = Gumbo(backend=sharded_backend)
        gumbo.execute(query, database, "greedy")
        sorted_by = []
        sorted_tuples = Relation.sorted_tuples

        def counting(relation):
            sorted_by.append(relation.name)
            return sorted_tuples(relation)

        monkeypatch.setattr(Relation, "sorted_tuples", counting)
        for _ in range(3):
            gumbo.execute(query, database, "greedy")
        assert sorted_by == []


# -- worker supervision --------------------------------------------------------------


class TestWorkerSupervision:
    def test_injected_crash_mid_request_is_respawned_and_retried(self):
        """A worker killed *after* its tasks are on the wire: the shard is
        respawned, its resident chunks reloaded, the batch retried once —
        and the caller sees a bit-identical result."""
        queries = bsgf_query_set("A1")
        database = database_for(queries, guard_tuples=150, selectivity=0.5, seed=4)
        serial = Gumbo().execute(queries, database, "greedy")
        with ShardedBackend(shards=SHARDS) as backend:
            gumbo = Gumbo(backend=backend)
            assert_same_run(serial, gumbo.execute(queries, database, "greedy"))
            assert backend.cluster.respawns == 0
            backend.cluster.inject_crash(0)
            survived = gumbo.execute(queries, database, "greedy")
            assert_same_run(serial, survived)
            assert backend.cluster.respawns == 1
            assert backend.cluster.retries == 1
            # The respawned worker reloaded shard 0's chunks: still warm.
            assert backend.ensure_loaded(database) == 0

    def test_sigkill_between_requests_is_survived(self):
        """A worker killed out-of-band (no armed injection) is detected on the
        next batch and replaced transparently."""
        queries = bsgf_query_set("A1")
        database = database_for(queries, guard_tuples=120, selectivity=0.5, seed=8)
        serial = Gumbo().execute(queries, database, "greedy")
        with ShardedBackend(shards=SHARDS) as backend:
            gumbo = Gumbo(backend=backend)
            gumbo.execute(queries, database, "greedy")
            victim = backend.cluster.worker_stats()[0]
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    os.kill(victim.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
            result = gumbo.execute(queries, database, "greedy")
            assert_same_run(serial, result)
            assert backend.cluster.respawns >= 1
            pids = {stats.pid for stats in backend.cluster.worker_stats()}
            assert victim.pid not in pids

    def test_worker_exception_raises_not_retries(self, sharded_backend):
        """A deterministic worker-side error is a finding, not a flake: it
        surfaces as ShardedExecutionError and is never respawn-retried."""
        cluster = sharded_backend.cluster
        respawns = cluster.respawns
        bad = MapTask(
            task_id=0,
            job_blob=pickle.dumps("not a job"),
            relation="NoSuchRelation",
            chunk_index=0,
            version=99,
        )
        with pytest.raises(ShardedExecutionError):
            cluster.run_tasks([(0, bad)])
        assert cluster.respawns == respawns
        # The worker survives: it answered with a Failure frame, not a death.
        assert cluster.ping()[0]["shard"] == 0

    def test_close_and_restart(self):
        queries = bsgf_query_set("A1")
        database = database_for(queries, guard_tuples=100, selectivity=0.5, seed=6)
        backend = ShardedBackend(shards=SHARDS)
        try:
            first = Gumbo(backend=backend).execute(queries, database, "greedy")
            backend.close()
            assert not backend.cluster.started
            second = Gumbo(backend=backend).execute(queries, database, "greedy")
            assert_same_run(first, second)
        finally:
            backend.close()

    def test_external_cluster_is_not_owned(self):
        cluster = ShardCluster(SHARDS)
        try:
            backend = ShardedBackend(cluster=cluster)
            assert backend.shards == SHARDS
            cluster.start()
            backend.close()  # must NOT stop the externally supplied cluster
            assert cluster.started
            with pytest.raises(ValueError):
                ShardedBackend(cluster=cluster, shards=SHARDS + 1)
        finally:
            cluster.close()


# -- the asyncio front-end -----------------------------------------------------------


QUERY = "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y);"
DB = {
    "R": [(i, i + 1) for i in range(40)],
    "S": [(i,) for i in range(0, 40, 2)],
    "T": [(i,) for i in range(0, 40, 5)],
}


class TestShardedFrontend:
    def test_serves_correct_results(self):
        database = Database.from_dict(DB)
        expected = Gumbo().execute(QUERY, database).output().tuples()

        async def scenario():
            with ShardedService.create(database, shards=SHARDS) as frontend:
                results = await asyncio.gather(
                    *(frontend.execute(QUERY) for _ in range(4))
                )
                return results, frontend.stats()

        results, stats = asyncio.run(scenario())
        for served in results:
            assert served.outputs["Z"].tuples() == expected
        assert stats["requests"] == 4
        assert stats["shed"] == 0
        # Plan cache amortised: at most one planning pass for four requests.
        assert sum(1 for r in results if not r.plan_cached) == 1

    def test_overload_sheds_beyond_admission_limit(self):
        """With concurrency 1 and queue 1, the third concurrent arrival (and
        every one after it) is shed with the typed error, immediately."""
        database = Database.from_dict(DB)

        async def scenario():
            with ShardedService.create(
                database, shards=SHARDS, max_concurrency=1, max_queue=1
            ) as frontend:
                await frontend.execute(QUERY)  # warm: load shards, cache plan

                outcomes = await asyncio.gather(
                    *(frontend.execute(QUERY) for _ in range(5)),
                    return_exceptions=True,
                )
                return outcomes, frontend.stats(), frontend.admission_limit

        outcomes, stats, limit = asyncio.run(scenario())
        assert limit == 2
        shed = [o for o in outcomes if isinstance(o, ServiceOverloadedError)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert len(shed) == 3
        assert len(served) == 2
        assert all(error.limit == 2 for error in shed)
        assert stats["shed"] == 3
        assert stats["queue_depth"] == 0  # drained

    def test_request_timeout_raises_typed_error(self):
        database = Database.from_dict(DB)

        async def scenario():
            with ShardedService.create(
                database, shards=SHARDS, request_timeout_s=1e-6
            ) as frontend:
                with pytest.raises(RequestTimeoutError) as excinfo:
                    await frontend.execute(QUERY)
                return excinfo.value, frontend.stats()

        error, stats = asyncio.run(scenario())
        assert error.timeout_s == 1e-6
        assert stats["timeouts"] == 1

    def test_materialize_then_serve_from_cache(self):
        database = Database.from_dict(DB)

        async def scenario():
            with ShardedService.create(database, shards=SHARDS) as frontend:
                await frontend.materialize(QUERY)
                served = await frontend.execute(QUERY)
                return served

        served = asyncio.run(scenario())
        assert served.plan_cached
        assert served.outputs["Z"].tuples() == Gumbo().execute(
            QUERY, Database.from_dict(DB)
        ).output().tuples()


# -- differential fuzzing ------------------------------------------------------------


class TestShardedFuzzCampaign:
    def test_fifty_case_campaign_zero_divergences(self):
        """50 random programs, every applicable strategy, serial vs sharded:
        outputs and simulated metrics must agree on every combination."""
        report = run_fuzz(
            FuzzOptions(
                seed=13,
                iterations=50,
                backends=("serial", "sharded"),
                shards=SHARDS,
                stop_on_failure=False,
            )
        )
        details = "\n\n".join(c.describe() for c in report.counterexamples)
        assert report.ok, f"sharded axis diverged from serial:\n{details}"
        assert report.cases_run == 50
        assert report.combinations_checked >= 50 * 2
