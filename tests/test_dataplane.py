"""How chunks reach the shard workers, and the shm remnant the benchmark uses.

Chunks travel to the multi-process backend's workers as pickled
``ColumnBlock.packed()`` tuples only.  The tests here pin:

* a hypothesis property: the pickled ``packed()`` tuple ⇄ ``unpack`` round
  trip that carries every chunk is IEEE-754 bit-exact for arbitrary int64
  and double columns (NaN payloads and ``-0.0`` included);
* the tier's ``repro_bytes_shipped{plane="pickle"}`` counter: the typed
  bytes of every chunk it packs, once per resident version;
* :class:`~repro.exec.shm.SegmentPool`, kept for the end-to-end benchmark's
  ``exec.shm_encode_ms`` probe: create/release/close_all unlink, and after
  the module zero orphaned ``/dev/shm/repro_*`` segments.

The other packed shapes (object fallback, empty blocks) are pinned in
``tests/test_model_relation.py``, the parallel/sharded Section 5 parity in
``tests/test_parity.py``, and crash recovery in ``tests/test_sharded.py``
and ``tests/test_fanout_kernels.py``.
"""

from __future__ import annotations

import glob
import os
import pickle
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exec import make_backend
from repro.exec.shm import SEGMENT_PREFIX, SegmentPool
from repro.model.database import Database
from repro.model.relation import ColumnBlock
from repro.obs import metrics as obs_metrics

requires_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shared memory unavailable"
)


def _leaked_segments():
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


@pytest.fixture(autouse=True, scope="module")
def no_leaked_segments():
    """The module must leave /dev/shm clean of repro-owned segments."""
    before = set(_leaked_segments())
    yield
    assert set(_leaked_segments()) <= before


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


# -- packed round trip (hypothesis) -------------------------------------------------

# Any 8 bytes are a valid IEEE-754 double — including quiet/signalling NaNs
# with payloads, infinities, subnormals and -0.0.
any_double = st.binary(min_size=8, max_size=8).map(
    lambda raw: struct.unpack("<d", raw)[0]
)
int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestRoundTrip:
    @given(
        ints=st.lists(int64, max_size=40),
        floats=st.lists(any_double, max_size=40),
    )
    @example(
        ints=[-(2**63), 0, 2**63 - 1],
        floats=[
            float("nan"),
            struct.unpack(">d", bytes.fromhex("7ff8000000000001"))[0],
            -0.0,
        ],
    )
    @settings(max_examples=60, deadline=None)
    def test_typed_columns_are_bit_exact(self, ints, floats):
        """Arbitrary int64 and double columns pack as typed arrays, survive
        the pickle a worker receives, and come back bit-exact: same types,
        same values, same IEEE-754 bits."""
        length = min(len(ints), len(floats))
        rows = [(ints[i], floats[i]) for i in range(length)]
        block = ColumnBlock.from_rows(rows, arity=2)
        _, _, columns = block.packed()
        if length:
            assert [kind for kind, _ in columns] == ["q", "d"]
        rebuilt = ColumnBlock.unpack(pickle.loads(pickle.dumps(block.packed())))
        assert [(type(i), type(f)) for i, f in rebuilt.rows()] == [
            (int, float)
        ] * length
        assert [(i, struct.pack("<d", f)) for i, f in rebuilt.rows()] == [
            (i, struct.pack("<d", f)) for i, f in rows
        ]


# -- observability -------------------------------------------------------------------


class TestInstruments:
    def test_pickle_plane_counts_bytes_too(self):
        """A resident load counts its typed column bytes (int64 + double:
        16 per row) once; a warm reload of the same version ships nothing."""
        shipped = obs_metrics.default_registry().counter(
            "repro_bytes_shipped", plane="pickle"
        )
        database = Database.from_dict({"R": [(i, float(i)) for i in range(64)]})
        backend = make_backend("parallel", workers=1)
        try:
            before = shipped.value
            assert backend.ensure_loaded(database) == 1
            assert shipped.value == before + 16 * 64
            assert backend.ensure_loaded(database) == 0
            assert shipped.value == before + 16 * 64
        finally:
            backend.close()
