"""Shared-memory block encoding, kept for one benchmark probe only.

Chunks reach the shard workers by pickle only
(:func:`repro.service.sharded.rpc.pack_chunk`), and nothing under ``repro``
imports this module.  It exists only for the end-to-end benchmark's layer
probe (``exec.shm_encode_ms`` in ``benchmarks/e2e/layers.py``), which times
:func:`encode_block` on one guard chunk and releases the segment again; it
goes when that probe is retired (ROADMAP item 1(d)).

:func:`encode_block` copies a packed block's typed ``array('q')`` /
``array('d')`` columns into one ``repro_dp_*`` segment and returns a
:class:`ShmPayload` descriptor.  The :class:`SegmentPool` that created the
segment owns it and unlinks it on :meth:`~SegmentPool.release`,
:meth:`~SegmentPool.close_all` or interpreter exit, so ``/dev/shm/repro_*``
stays auditable for leaks.
"""

from __future__ import annotations

import atexit
import itertools
import os
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

from ..model.relation import ColumnBlock
from ..obs import metrics as obs_metrics

#: Prefix of every segment this module creates (leak checks audit
#: ``/dev/shm/repro_*``).
SEGMENT_PREFIX = "repro_dp_"

#: Typed column bytes :func:`encode_block` placed into segments.
_SHIPPED_SHM = obs_metrics.default_registry().counter(
    "repro_bytes_shipped", plane="shm"
)

_COUNTER = itertools.count()

#: Every pool created in this process, for the atexit backstop.
_POOLS: "weakref.WeakSet[SegmentPool]" = weakref.WeakSet()


class SegmentPool:
    """The shared-memory segments one component created and must unlink."""

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._pid = os.getpid()
        _POOLS.add(self)

    def __len__(self) -> int:
        return len(self._segments)

    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        """Create and own a new ``repro_dp_*`` segment of *nbytes* bytes."""
        name = f"{SEGMENT_PREFIX}{os.getpid():x}_{next(_COUNTER):x}"
        segment = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        self._segments[segment.name] = segment
        return segment

    def release(self, name: str) -> None:
        """Close and unlink segment *name* (a no-op for unknown names)."""
        segment = self._segments.pop(name, None)
        if segment is not None:
            _dispose(segment)

    def close_all(self) -> None:
        """Close and unlink every segment the pool still owns."""
        segments, self._segments = self._segments, {}
        for segment in segments.values():
            _dispose(segment)


def _dispose(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.close()
    except BufferError:
        # A memoryview into the buffer is still alive; the mapping is
        # reclaimed at process exit.  The unlink below still removes the
        # name, which is what leak checks observe.
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


@atexit.register
def _cleanup_at_exit() -> None:
    """Unlink every still-owned segment of this process at interpreter exit.

    Guarded by pid so a forked child inheriting the module state can never
    unlink its parent's live segments.
    """
    pid = os.getpid()
    for pool in list(_POOLS):
        if pool._pid == pid:
            pool.close_all()


@dataclass(frozen=True)
class ShmPayload:
    """A block whose typed columns live in a shared-memory segment.

    ``columns`` entries are ``(kind, offset, count)`` for a typed column
    (``kind`` ∈ ``'q'``/``'d'``; *offset* in bytes into the segment) or
    ``("o", column)`` for an object column carried inline.
    """

    segment: str
    length: int
    arity: Optional[int]
    columns: Tuple[tuple, ...]


def encode_block(block: ColumnBlock, pool: SegmentPool, plane: str = "shm") -> object:
    """Place *block*'s typed columns into one new segment owned by *pool*.

    Returns a :class:`ShmPayload` (release its segment with
    ``pool.release(payload_segment(payload))``), or the plain
    :meth:`ColumnBlock.packed` tuple when the block has no typed bytes or
    the segment cannot be created (``/dev/shm`` full or unavailable).
    """
    if plane != "shm":
        raise ValueError(f"encode_block only places blocks in shm, got {plane!r}")
    packed = block.packed()
    length, arity, columns = packed
    total = sum(
        column.itemsize * len(column) for kind, column in columns if kind != "o"
    )
    if total == 0:
        return packed
    try:
        segment = pool.create(total)
    except OSError:
        return packed
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
    _SHIPPED_SHM.inc(total)
    return ShmPayload(
        segment=segment.name, length=length, arity=arity, columns=tuple(out)
    )


def payload_segment(payload: object) -> Optional[str]:
    """The segment name a payload references (``None`` for a packed tuple)."""
    return payload.segment if isinstance(payload, ShmPayload) else None
