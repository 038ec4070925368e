"""The shared-memory data plane: bit-exact round trips, parity, leak-proofing.

The data plane may change *how* chunk payloads reach the multi-process
backend's workers — never *what* they compute.  The tests here pin that contract from
every side:

* a hypothesis property: ``ColumnBlock.packed()`` ⇄ shm attach round trips
  are IEEE-754 bit-exact (NaN payloads and ``-0.0`` included), empty columns
  and object-dtype columns take the pickle fallback, mixed blocks ship typed
  columns via the segment and object columns inline;
* :class:`SegmentPool` refcounting: create/attach/release, idempotent
  release, ``close_all``, and — after every test — zero orphaned
  ``/dev/shm/repro_*`` segments;
* the full Section 5 workload matrix on the multi-process backend (under
  both of its names) with ``--data-plane shm`` *and* ``pickle``: outputs and
  simulated metrics bit-identical to the serial reference on both planes;
* worker-crash recovery on the shm plane: the respawned shard re-attaches
  the cluster-owned segments, the retried batch matches, nothing leaks;
* a differential fuzz campaign on the shm axis (the nightly CI job runs the
  long version);
* the ``repro_bytes_shipped{plane}`` / ``repro_shm_bytes_resident``
  instruments and the config/CLI plumbing of ``--data-plane``.
"""

from __future__ import annotations

import glob
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.core.config import ExecutionConfig
from repro.core.gumbo import Gumbo
from repro.core.options import GumboOptions
from repro.core.strategies import build_bsgf_program
from repro.exec import SimulatedBackend, make_backend
from repro.exec.shm import (
    DATA_PLANES,
    SEGMENT_PREFIX,
    SegmentPool,
    ShmPayload,
    decode_payload,
    encode_block,
    normalise_data_plane,
    payload_segment,
    shm_available,
    typed_nbytes,
)
from repro.fuzz import FuzzConfig, FuzzOptions, run_fuzz
from repro.mapreduce.engine import MapReduceEngine
from repro.model.relation import ColumnBlock
from repro.obs import metrics as obs_metrics
from repro.workloads.queries import (
    bsgf_query_set,
    database_for,
    section5_workloads,
    workload_query,
)

from test_exec_backends import _assert_results_match

requires_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


def _leaked_segments():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


@pytest.fixture(autouse=True, scope="module")
def no_leaked_segments():
    """The module must leave /dev/shm clean of repro-owned segments.

    Module-scoped (finalised *after* the module's backends close) because
    resident shm segments legitimately live as long as their sharded
    cluster; orphans are what leak.  The CI leak check enforces the same
    invariant after the whole suite.
    """
    before = set(_leaked_segments())
    yield
    assert set(_leaked_segments()) <= before


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _assert_rows_bit_equal(expected, actual):
    assert len(expected) == len(actual)
    for row_e, row_a in zip(expected, actual):
        assert len(row_e) == len(row_a)
        for cell_e, cell_a in zip(row_e, row_a):
            assert type(cell_e) is type(cell_a)
            if isinstance(cell_e, float):
                assert _bits(cell_e) == _bits(cell_a)
            else:
                assert cell_e == cell_a


# -- plane selection -----------------------------------------------------------------


class TestNormalise:
    def test_canonical_names(self):
        assert DATA_PLANES == ("auto", "shm", "pickle")
        for name in DATA_PLANES:
            assert normalise_data_plane(name) == name
            assert normalise_data_plane(name.upper()) == name

    def test_none_is_auto(self):
        assert normalise_data_plane(None) == "auto"

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown data plane"):
            normalise_data_plane("mmap")


# -- segment pool --------------------------------------------------------------------


@requires_shm
class TestSegmentPool:
    def test_create_release_unlinks(self):
        pool = SegmentPool()
        segment = pool.create(64)
        assert segment.name.startswith(SEGMENT_PREFIX)
        assert f"/dev/shm/{segment.name}" in _leaked_segments()
        pool.release(segment.name)
        assert len(pool) == 0
        assert f"/dev/shm/{segment.name}" not in _leaked_segments()

    def test_attach_refcounts(self):
        owner = SegmentPool()
        segment = owner.create(64)
        segment.buf[:3] = b"abc"
        attacher = SegmentPool()
        view = attacher.attach(segment.name)
        assert bytes(view.buf[:3]) == b"abc"
        again = attacher.attach(segment.name)
        assert again is view  # refcounted, one mapping
        attacher.release(segment.name)
        assert len(attacher) == 1  # still referenced once
        attacher.release(segment.name)
        assert len(attacher) == 0
        # Attachers never unlink: the name is still owned by the creator.
        assert f"/dev/shm/{segment.name}" in _leaked_segments()
        owner.release(segment.name)

    def test_release_unknown_is_idempotent(self):
        pool = SegmentPool()
        pool.release("repro_dp_never_created")  # must not raise

    def test_close_all(self):
        pool = SegmentPool()
        names = [pool.create(32).name for _ in range(3)]
        pool.close_all()
        assert len(pool) == 0
        for name in names:
            assert f"/dev/shm/{name}" not in _leaked_segments()


# -- packed ⇄ shm round trip (hypothesis) --------------------------------------------

# Any 8 bytes are a valid IEEE-754 double — including quiet/signalling NaNs
# with payloads, infinities, subnormals and -0.0.
any_double = st.binary(min_size=8, max_size=8).map(
    lambda raw: struct.unpack("<d", raw)[0]
)
int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@requires_shm
class TestRoundTrip:
    @given(
        ints=st.lists(int64, min_size=0, max_size=40),
        floats=st.lists(any_double, min_size=0, max_size=40),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_typed_columns_are_bit_exact(self, ints, floats):
        length = min(len(ints), len(floats))
        rows = [(ints[i], floats[i]) for i in range(length)]
        block = ColumnBlock.from_rows(rows, arity=2)
        pool = SegmentPool()
        payload = encode_block(block, pool, "shm")
        try:
            if length == 0:
                # No typed bytes: the pickle plane applies by definition.
                assert not isinstance(payload, ShmPayload)
            else:
                assert isinstance(payload, ShmPayload)
                assert typed_nbytes(block.packed()) == 16 * length
            decoded = decode_payload(payload, pool)
            _assert_rows_bit_equal(rows, decoded.rows())
            decoded.release()
        finally:
            segment = payload_segment(payload)
            if segment is not None:
                pool.release(segment)
        assert len(pool) == 0

    @given(
        rows=st.lists(
            st.tuples(
                int64,
                st.one_of(
                    st.booleans(),
                    st.text(max_size=6),
                    st.integers(min_value=2**63, max_value=2**70),
                    st.none(),
                ),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_object_columns_ride_inline(self, rows):
        """Mixed blocks: the int column crosses via shm, the object column
        rides inside the descriptor by pickle — exact values either way."""
        block = ColumnBlock.from_rows(rows, arity=2)
        pool = SegmentPool()
        payload = encode_block(block, pool, "shm")
        try:
            if isinstance(payload, ShmPayload):
                kinds = [entry[0] for entry in payload.columns]
                assert kinds == ["q", "o"]
            decoded = decode_payload(payload, pool)
            assert decoded.rows() == rows
            decoded.release()
        finally:
            segment = payload_segment(payload)
            if segment is not None:
                pool.release(segment)
        assert len(pool) == 0

    def test_special_float_values(self):
        rows = [
            (float("nan"),),
            (struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf0\x7f")[0],),
            (-0.0,),
            (float("inf",),),
            (5e-324,),
        ]
        block = ColumnBlock.from_rows(rows, arity=1)
        pool = SegmentPool()
        payload = encode_block(block, pool, "shm")
        decoded = decode_payload(payload, pool)
        _assert_rows_bit_equal(rows, decoded.rows())
        decoded.release()
        pool.release(payload_segment(payload))
        assert len(pool) == 0

    def test_pickle_plane_is_the_historical_tuple(self):
        block = ColumnBlock.from_rows([(1, 2.0), (3, 4.0)], arity=2)
        pool = SegmentPool()
        payload = encode_block(block, pool, "pickle")
        assert payload == block.packed()
        assert payload_segment(payload) is None
        assert len(pool) == 0
        decoded = decode_payload(payload, pool)
        assert decoded.rows() == block.rows()
        decoded.release()  # no-op on the pickle plane


# -- backend parity matrix -----------------------------------------------------------


@pytest.fixture(scope="module")
def serial_backend():
    return SimulatedBackend(MapReduceEngine())


@pytest.fixture(scope="module", params=["shm", "pickle"])
def parallel_backend(request):
    if request.param == "shm" and not shm_available():
        pytest.skip("POSIX shared memory unavailable")
    backend = make_backend(
        "parallel",
        engine=MapReduceEngine(),
        workers=2,
        data_plane=request.param,
    )
    yield backend
    backend.close()


@pytest.fixture(scope="module", params=["shm", "pickle"])
def sharded_backend(request):
    if request.param == "shm" and not shm_available():
        pytest.skip("POSIX shared memory unavailable")
    backend = make_backend(
        "sharded", engine=MapReduceEngine(), shards=2, data_plane=request.param
    )
    yield backend
    backend.close()


SECTION5_IDS = [query_id for query_id, _ in section5_workloads()]


class TestParallelParity:
    @pytest.mark.parametrize("query_id", SECTION5_IDS)
    def test_section5_workloads(self, query_id, serial_backend, parallel_backend):
        query = workload_query(query_id)
        database = database_for(query, guard_tuples=90, selectivity=0.5, seed=5)
        serial = Gumbo(backend=serial_backend).execute(query, database)
        parallel = Gumbo(backend=parallel_backend).execute(query, database)
        _assert_results_match(serial, parallel)
        assert parallel.metrics.backend == "parallel"


class TestShardedParity:
    @pytest.mark.parametrize("query_id", SECTION5_IDS)
    def test_section5_workloads(self, query_id, serial_backend, sharded_backend):
        query = workload_query(query_id)
        database = database_for(query, guard_tuples=90, selectivity=0.5, seed=5)
        serial = Gumbo(backend=serial_backend).execute(query, database)
        sharded = Gumbo(backend=sharded_backend).execute(query, database)
        _assert_results_match(serial, sharded)
        assert sharded.metrics.backend == "sharded"


@requires_shm
class TestCrashRecovery:
    def test_respawn_reattaches_resident_segments(self, serial_backend):
        """A worker killed mid-request on the shm plane: the respawned shard
        re-attaches the cluster-owned segments (tiny descriptor reload, not
        a row re-ship), the retried batch matches serial, nothing leaks."""
        queries = bsgf_query_set("A3")
        database = database_for(queries, guard_tuples=300, selectivity=0.5, seed=3)
        serial = Gumbo(backend=serial_backend).execute(queries, database, "greedy")
        backend = make_backend("sharded", shards=2, data_plane="shm")
        try:
            warm = Gumbo(backend=backend).execute(queries, database, "greedy")
            _assert_results_match(serial, warm)
            backend.cluster.inject_crash(0)
            recovered = Gumbo(backend=backend).execute(queries, database, "greedy")
            _assert_results_match(serial, recovered)
            assert backend.cluster.respawns >= 1
            assert backend.cluster.retries >= 1
        finally:
            backend.close()

    def test_parallel_shipping_segments_are_freed_per_wave(self, serial_backend):
        queries = bsgf_query_set("A1")
        database = database_for(queries, guard_tuples=200, selectivity=0.5, seed=9)
        serial = Gumbo(backend=serial_backend).execute(queries, database, "greedy")
        backend = make_backend("parallel", workers=2, data_plane="shm")
        try:
            result = Gumbo(backend=backend).execute(queries, database, "greedy")
            _assert_results_match(serial, result)
            # Inline (intermediate) segments are released as soon as their
            # map phase is back, not held until close().
            assert len(backend._segments) == 0
        finally:
            backend.close()


    @pytest.mark.parametrize("name", ["parallel", "sharded"])
    def test_failed_encode_releases_earlier_chunks(self, name, monkeypatch):
        """Shipping fails on the second chunk (say /dev/shm is full): the
        error propagates and the first chunk's segment is not left pinned in
        the backend's pool until close().  The database is not resident, so
        run_job ships every chunk inline."""
        from repro.service.sharded import backend as driver

        queries = bsgf_query_set("A1")
        database = database_for(queries, guard_tuples=200, selectivity=0.5, seed=9)
        job = build_bsgf_program(queries, "par").levels()[0][0]
        assert len(job.input_relations()) >= 2
        shipped = []

        def failing_encode(block, pool, plane):
            if shipped:
                raise OSError("no space left on /dev/shm")
            payload = encode_block(block, pool, plane)
            shipped.append(payload_segment(payload))
            return payload

        monkeypatch.setattr(driver, "encode_block", failing_encode)
        before = set(_leaked_segments())
        backend = make_backend(name, workers=2, shards=2, data_plane="shm")
        try:
            with pytest.raises(OSError, match="no space left"):
                backend.run_job(job, database)
            assert shipped[0] is not None  # chunk 0 really sat in a segment
            assert len(backend._segments) == 0
            assert set(_leaked_segments()) <= before
        finally:
            backend.close()


# -- fuzz axis -----------------------------------------------------------------------


@requires_shm
class TestFuzzAxis:
    def test_small_shm_campaign_has_zero_divergence(self):
        report = run_fuzz(
            FuzzOptions(
                seed=11,
                iterations=4,
                config=FuzzConfig(max_statements=3),
                backends=("serial", "parallel", "sharded"),
                workers=2,
                shards=2,
                data_plane="shm",
                shrink=False,
                include_optimal=False,
                kernel_axis=False,
                stop_on_failure=False,
            )
        )
        assert report.ok, report.counterexamples
        assert report.cases_run == 4


# -- observability -------------------------------------------------------------------


@requires_shm
class TestInstruments:
    def test_shipped_bytes_and_residency(self):
        registry = obs_metrics.default_registry()
        shipped_shm = registry.counter("repro_bytes_shipped", plane="shm")
        resident = registry.gauge("repro_shm_bytes_resident")
        before = shipped_shm.value
        pool = SegmentPool()
        block = ColumnBlock.from_rows([(i, float(i)) for i in range(64)], arity=2)
        payload = encode_block(block, pool, "shm")
        assert shipped_shm.value == before + 16 * 64
        assert resident.value >= 16 * 64
        level = resident.value
        pool.release(payload_segment(payload))
        assert resident.value == level - 16 * 64

    def test_pickle_plane_counts_bytes_too(self):
        registry = obs_metrics.default_registry()
        shipped_pickle = registry.counter("repro_bytes_shipped", plane="pickle")
        before = shipped_pickle.value
        pool = SegmentPool()
        block = ColumnBlock.from_rows([(i,) for i in range(8)], arity=1)
        encode_block(block, pool, "pickle")
        assert shipped_pickle.value == before + 8 * 8


# -- configuration plumbing ----------------------------------------------------------


class TestPlumbing:
    def test_execution_config_normalises_and_threads(self):
        config = ExecutionConfig(backend="parallel", data_plane="SHM")
        assert config.data_plane == "shm"
        assert config.to_options().data_plane == "shm"
        with pytest.raises(ValueError, match="unknown data plane"):
            ExecutionConfig(data_plane="tcp")

    def test_options_validate(self):
        assert GumboOptions(data_plane="Pickle").data_plane == "pickle"
        with pytest.raises(ValueError, match="unknown data plane"):
            GumboOptions(data_plane="udp")

    def test_backends_carry_their_plane(self):
        for name in ("parallel", "sharded"):
            backend = make_backend(name, workers=1, shards=1, data_plane="pickle")
            try:
                assert backend.data_plane == "pickle"
            finally:
                backend.close()

    def test_make_backend_instance_conflict(self):
        backend = make_backend("parallel", workers=1, data_plane="pickle")
        try:
            assert make_backend(backend, data_plane="pickle") is backend
            with pytest.raises(ValueError, match="its own data plane"):
                make_backend(backend, data_plane="shm")
        finally:
            backend.close()

    def test_connect_accepts_data_plane(self):
        with repro.connect(
            {"R": [(1, 2)], "S": [(1,)]},
            backend="parallel",
            workers=1,
            data_plane="pickle",
        ) as conn:
            assert conn.config.data_plane == "pickle"
            result = conn.execute(
                "Z := SELECT (x, y) FROM R(x, y) WHERE S(x);"
            )
            assert result.tuples() == {(1, 2)}

    def test_connect_conflicts(self):
        with pytest.raises(ValueError, match="not both"):
            repro.connect(
                {"R": [(1,)]},
                data_plane="shm",
                config=ExecutionConfig(),
            )
        with pytest.raises(ValueError, match="not both"):
            repro.connect(
                {"R": [(1,)]},
                data_plane="shm",
                options=GumboOptions(),
            )

    def test_sharded_external_cluster_conflict(self):
        from repro.service.sharded import ShardCluster, ShardedBackend

        cluster = ShardCluster(1, data_plane="pickle")
        try:
            backend = ShardedBackend(cluster=cluster)
            assert backend.data_plane == "pickle"
            backend.close()
            with pytest.raises(ValueError, match="data plane"):
                ShardedBackend(cluster=cluster, data_plane="shm")
        finally:
            cluster.close()
