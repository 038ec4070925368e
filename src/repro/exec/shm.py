"""The shared-memory data plane: typed columns cross processes without copies.

The hot path of the multi-process backend is no longer compute — it is
*data movement*: resident loads and the inline chunks of program
intermediates would otherwise cross the RPC boundary as pickled
:meth:`~repro.model.relation.ColumnBlock.packed` payloads, re-serialised
whenever a worker (re)loads them.  This module gives the tier a second
plane: the typed ``array('q')``/``array('d')`` columns of
a packed block are placed **once** into a ``multiprocessing.shared_memory``
segment, and what crosses the process boundary is a tiny
:class:`ShmPayload` descriptor.  Workers attach the segment and build
memoryview-backed blocks — zero copies, identical values.

Three data planes are selectable (``--data-plane`` on the CLI,
``data_plane=`` on :func:`repro.connect` / the backends):

``"pickle"``
    The historical behaviour: packed tuples travel by pickle.
``"shm"``
    Force shared memory for every chunk with typed columns (object-dtype
    columns still ride inline by pickle — see below — and the plane falls
    back to pickle wholesale when shared memory is unavailable).
``"auto"`` (default)
    Shared memory when available **and** the chunk's typed payload is at
    least :data:`SHM_MIN_BYTES`; pickle otherwise (tiny chunks are cheaper
    to pickle than to mmap).

Correctness contract — the plane may never change results:

* ``'q'``/``'d'`` values read through a cast memoryview are bit-identical to
  the ``array.tolist()`` round trip of the pickle plane (IEEE-754 NaN
  payloads and ``-0.0`` included), and both planes materialise fresh Python
  objects per row, so object-identity-sensitive accounting cannot diverge;
* ``'o'`` (object/mixed) columns always travel inside the (pickled)
  descriptor itself, preserving pickle's memoisation semantics exactly;
* empty or all-object blocks have no typed bytes and use the pickle plane.

Ownership and crash-cleanup guarantees (see ``docs/dataplane.md``):

* the **creating** process owns a segment: :class:`SegmentPool` names it
  ``repro_dp_*`` (so ``/dev/shm/repro_*`` is auditable), keeps it registered
  with the ``multiprocessing`` resource tracker as a crash backstop, and
  unlinks it deterministically when its refcount drops (map phase back,
  resident version replaced, backend closed) or at interpreter exit;
* **attaching** processes (workers) map the segment through a tracker-free
  ``shm_open``/``mmap`` path (:class:`_AttachedSegment`) instead of
  ``SharedMemory(name)``, which on Python < 3.13 would *register* the
  segment with the attaching process's resource tracker too (bpo-39959) —
  either unlinking live memory when a worker exits (spawn) or corrupting
  the shared tracker's ledger (fork).  A crashed worker therefore leaks
  nothing — the OS unmaps its view and the owner still unlinks the name.
"""

from __future__ import annotations

import atexit
import itertools
import mmap
import os
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

try:  # POSIX shared memory; absent on Windows (where the tracker is a no-op)
    import _posixshmem
except ImportError:  # pragma: no cover - non-POSIX fallback
    _posixshmem = None

from ..model.relation import ColumnBlock
from ..obs import metrics as obs_metrics

#: Canonical data-plane names accepted by the CLI and every constructor.
DATA_PLANE_AUTO = "auto"
DATA_PLANE_SHM = "shm"
DATA_PLANE_PICKLE = "pickle"
DATA_PLANES = (DATA_PLANE_AUTO, DATA_PLANE_SHM, DATA_PLANE_PICKLE)

#: Prefix of every segment this module creates; the CI leak check (and any
#: operator) can audit ``/dev/shm/repro_*`` for orphans.
SEGMENT_PREFIX = "repro_dp_"

#: ``"auto"`` ships a chunk via shared memory only when its typed columns
#: hold at least this many bytes (below it, pickling is cheaper than mmap).
SHM_MIN_BYTES = int(os.environ.get("REPRO_SHM_MIN_BYTES", 32 * 1024))

#: Bytes of typed column data shipped to workers, by plane.  The shm counter
#: counts bytes placed in segments (crossing as mappings, not copies); the
#: pickle counter counts typed bytes serialised into task payloads.
_SHIPPED_SHM = obs_metrics.default_registry().counter(
    "repro_bytes_shipped", plane="shm"
)
_SHIPPED_PICKLE = obs_metrics.default_registry().counter(
    "repro_bytes_shipped", plane="pickle"
)

#: Bytes currently resident in shared-memory segments owned by this process.
_SHM_RESIDENT = obs_metrics.default_registry().gauge("repro_shm_bytes_resident")

_COUNTER = itertools.count()

#: Every pool created in this process, for the atexit backstop.
_POOLS: "weakref.WeakSet[SegmentPool]" = weakref.WeakSet()


def normalise_data_plane(name: Optional[str]) -> str:
    """Canonical data-plane name (``None`` means the ``"auto"`` default).

    Raises:
        ValueError: If *name* is not one of :data:`DATA_PLANES`.
    """
    if name is None:
        return DATA_PLANE_AUTO
    canonical = name.strip().lower()
    if canonical not in DATA_PLANES:
        raise ValueError(
            f"unknown data plane {name!r}; expected one of {DATA_PLANES}"
        )
    return canonical


_AVAILABLE: Optional[bool] = None


def shm_available() -> bool:
    """Whether POSIX shared memory works here (probed once per process)."""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            probe = shared_memory.SharedMemory(
                name=f"{SEGMENT_PREFIX}probe_{os.getpid():x}", create=True, size=8
            )
            probe.close()
            probe.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


class _AttachedSegment:
    """A tracker-free attach to an existing POSIX shared-memory segment.

    Mirrors the slice of the ``SharedMemory`` surface the pool needs
    (``name``/``size``/``buf``/``close``) but maps the segment with a raw
    ``shm_open`` + ``mmap``, never touching the ``multiprocessing`` resource
    tracker: attaching must not affect the owner's cleanup ledger in any
    start method (see the module docstring).
    """

    __slots__ = ("name", "size", "buf", "_mmap", "_fd")

    def __init__(self, name: str) -> None:
        self.name = name
        self._fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
        try:
            self.size = os.fstat(self._fd).st_size
            self._mmap = mmap.mmap(self._fd, self.size)
        except OSError:
            os.close(self._fd)
            raise
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        """Unmap the segment (raises ``BufferError`` while views are alive)."""
        if self.buf is not None:
            self.buf.release()
            self.buf = None
        self._mmap.close()
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1


def _attach_untracked(name: str):
    """Attach to segment *name* without resource-tracker side effects."""
    if _posixshmem is not None:
        return _AttachedSegment(name)
    # Windows: SharedMemory's attach branch never registers with the tracker.
    return shared_memory.SharedMemory(name=name)  # pragma: no cover


class SegmentPool:
    """Ref-counted create/attach/release bookkeeping for shm segments.

    One pool per owning component (a backend's shipping pool, a cluster's
    resident pool, a worker's attach-side pool).  ``create`` entries are
    *owned*: the pool unlinks them when their refcount drops to zero (and,
    as a backstop, at interpreter exit — crashed owners are covered by the
    resource tracker instead).  ``attach`` entries are only ever closed.
    Refcounts are process-local; cross-process lifetime is the owner's.
    """

    def __init__(self) -> None:
        #: name -> [segment, refcount, owned?]
        self._segments: Dict[str, List[object]] = {}
        self._pid = os.getpid()
        _POOLS.add(self)

    def __len__(self) -> int:
        return len(self._segments)

    def names(self) -> Tuple[str, ...]:
        """The names currently held (tests and leak checks)."""
        return tuple(sorted(self._segments))

    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        """Create and own a new ``repro_dp_*`` segment of *nbytes* bytes."""
        name = f"{SEGMENT_PREFIX}{os.getpid():x}_{next(_COUNTER):x}"
        segment = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        self._segments[segment.name] = [segment, 1, True]
        _SHM_RESIDENT.inc(segment.size)
        return segment

    def attach(self, name: str) -> shared_memory.SharedMemory:
        """Attach to segment *name* (refcounted; untracked, see above)."""
        entry = self._segments.get(name)
        if entry is not None:
            entry[1] += 1
            return entry[0]
        segment = _attach_untracked(name)
        self._segments[name] = [segment, 1, False]
        return segment

    def release(self, name: str) -> None:
        """Drop one reference to *name*; close (and unlink, if owned) at zero.

        Idempotent for unknown names, so transient and resident callers can
        share release paths without double-free bookkeeping.
        """
        entry = self._segments.get(name)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] > 0:
            return
        del self._segments[name]
        self._dispose(entry[0], owned=bool(entry[2]))

    def close_all(self) -> None:
        """Release everything (backend ``close()`` / atexit backstop)."""
        segments, self._segments = self._segments, {}
        for segment, _, owned in segments.values():
            self._dispose(segment, owned=bool(owned))

    @staticmethod
    def _dispose(segment: shared_memory.SharedMemory, owned: bool) -> None:
        try:
            segment.close()
        except BufferError:
            # A memoryview into the buffer is still alive; the mapping is
            # reclaimed at process exit.  Unlinking below still removes the
            # name, which is what leak checks observe.
            pass
        if owned:
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
            _SHM_RESIDENT.dec(segment.size)


@atexit.register
def _cleanup_at_exit() -> None:
    """Unlink every still-owned segment of this process at interpreter exit.

    Guarded by pid so a forked child inheriting the module state can never
    unlink its parent's live segments (children also skip ``atexit`` via
    ``os._exit``, but the guard makes the invariant local and testable).
    """
    pid = os.getpid()
    for pool in list(_POOLS):
        if pool._pid == pid:
            pool.close_all()


#: The attach-side pool of the current process, created lazily and keyed by
#: pid so forked workers never reuse (or dispose) their parent's entries.
_WORKER_POOL: Optional[Tuple[int, SegmentPool]] = None


def worker_segment_pool() -> SegmentPool:
    """The per-process attach-side pool used by worker decode paths."""
    global _WORKER_POOL
    pid = os.getpid()
    if _WORKER_POOL is None or _WORKER_POOL[0] != pid:
        _WORKER_POOL = (pid, SegmentPool())
    return _WORKER_POOL[1]


@dataclass(frozen=True)
class ShmPayload:
    """A shipped chunk whose typed columns live in a shared-memory segment.

    ``columns`` entries are either ``(kind, offset, count)`` for a typed
    column (``kind`` ∈ ``'q'``/``'d'``; *offset* in bytes into the segment)
    or ``("o", column)`` for an object column riding inline — the pickle
    fallback for mixed/object dtypes keeps its exact historical semantics.
    """

    segment: str
    length: int
    arity: Optional[int]
    columns: Tuple[tuple, ...]


def typed_nbytes(packed: tuple) -> int:
    """Bytes held by the typed (``'q'``/``'d'``) columns of a packed block."""
    _, _, columns = packed
    return sum(
        column.itemsize * len(column) for kind, column in columns if kind != "o"
    )


def _use_shm(plane: str, nbytes: int) -> bool:
    if plane == DATA_PLANE_PICKLE or nbytes == 0 or not shm_available():
        return False
    return plane == DATA_PLANE_SHM or nbytes >= SHM_MIN_BYTES


def encode_block(block: ColumnBlock, pool: SegmentPool, plane: str) -> object:
    """Encode *block* for shipping under *plane*.

    Returns an :class:`ShmPayload` (typed columns placed into a fresh
    segment owned by *pool*; the caller must ``pool.release`` its name when
    the consumers are done) or the plain :meth:`ColumnBlock.packed` tuple
    when the pickle plane applies — by selection, by the ``auto`` size
    threshold, because the block has no typed columns, or because segment
    creation failed (``/dev/shm`` full or unavailable).
    """
    packed = block.packed()
    nbytes = typed_nbytes(packed)
    if _use_shm(normalise_data_plane(plane), nbytes):
        payload = _place(packed, pool)
        if payload is not None:
            _SHIPPED_SHM.inc(nbytes)
            return payload
    _SHIPPED_PICKLE.inc(nbytes)
    return packed


def _place(packed: tuple, pool: SegmentPool) -> Optional[ShmPayload]:
    """Copy the typed columns of *packed* into one new segment."""
    length, arity, columns = packed
    total = typed_nbytes(packed)
    try:
        segment = pool.create(total)
    except OSError:
        return None  # no room / no shm filesystem: fall back to pickle
    out: List[tuple] = []
    offset = 0
    for kind, column in columns:
        if kind == "o":
            out.append(("o", column))
            continue
        nbytes = column.itemsize * len(column)
        if nbytes:
            segment.buf[offset : offset + nbytes] = memoryview(column).cast("B")
        out.append((kind, offset, len(column)))
        offset += nbytes
    return ShmPayload(
        segment=segment.name, length=length, arity=arity, columns=tuple(out)
    )


def payload_segment(payload: object) -> Optional[str]:
    """The segment name a payload references (``None`` on the pickle plane)."""
    return payload.segment if isinstance(payload, ShmPayload) else None


def decode_payload(
    payload: object, pool: Optional[SegmentPool] = None
) -> ColumnBlock:
    """Rebuild a :class:`ColumnBlock` from either plane's payload.

    Shm payloads attach their segment through *pool* (the per-process
    :func:`worker_segment_pool` by default) and expose typed columns as cast
    memoryviews — zero copies; row/key materialisation yields values
    bit-identical to :meth:`ColumnBlock.unpack`.  The returned block carries
    a release hook: call :meth:`ColumnBlock.release` once its rows are
    materialised (transient chunks) or when it is evicted (residents).
    Pickle payloads decode exactly as before and release as a no-op.
    """
    if not isinstance(payload, ShmPayload):
        return ColumnBlock.unpack(payload)
    if pool is None:
        pool = worker_segment_pool()
    segment = pool.attach(payload.segment)
    buf = segment.buf
    columns: List[object] = []
    for entry in payload.columns:
        if entry[0] == "o":
            columns.append(entry[1])
        else:
            kind, offset, count = entry
            columns.append(buf[offset : offset + count * 8].cast(kind))
    name = payload.segment
    return ColumnBlock.attached(
        tuple(columns),
        payload.length,
        payload.arity,
        release=lambda: pool.release(name),
    )


def payload_probe(payload: object) -> int:
    """Decode a data-plane payload and return its row count.

    The benchmark helper (module-level so pool workers can import it):
    measures the *shipping phase* — everything up to a usable
    :class:`ColumnBlock` in the worker — under either plane.  For pickle
    payloads that includes the pipe bytes, the unpickle and the
    ``array.tolist()`` materialisation; for shm payloads it is the
    descriptor plus an attach.
    """
    block = decode_payload(payload)
    count = block.length
    block.release()
    return count
