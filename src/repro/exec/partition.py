"""Deterministic partitioning shared by every execution backend.

Hadoop's default partitioner assigns a key to reducer ``hash(key) % r``.  The
simulator cannot use Python's builtin ``hash`` for this because it is salted
per process (``PYTHONHASHSEED``), which would make reducer loads — and with
them the skew-sensitive net times — unstable across runs and across the
worker processes of the multi-process backend.  :func:`stable_hash` therefore uses
CRC-32 over the key's ``repr``, which is deterministic, cheap, and identical
in every process.

Every backend routes *all* key placement (reducer load accounting, chunk
placement on the worker shards) through this one module, which is what makes
their outputs and metrics bit-identical.
"""

from __future__ import annotations

import zlib
from typing import List, Sequence, Tuple

__all__ = ["stable_hash", "partition_index", "map_task_chunks"]


def stable_hash(key: object) -> int:
    """A deterministic, process-independent hash used to partition keys.

    A pure function of the key's ``repr`` — deliberately not memoised: equal
    keys of different type (``(1,) == (1.0,) == (True,)``) share a memo slot
    but not a ``repr``, so a memo would make placement depend on which of
    them some earlier job happened to hash first.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


def partition_index(key: object, partitions: int) -> int:
    """The shuffle partition (reducer) the given key is routed to."""
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    return stable_hash(key) % partitions


def map_task_chunks(
    rows: Sequence[Tuple[object, ...]], mappers: int
) -> List[Sequence[Tuple[object, ...]]]:
    """Split an input part's rows into per-map-task chunks.

    Uses the same strided split for every backend (chunk *i* takes rows
    ``i, i+n, i+2n, ...``), so the serial engine and the worker shards see
    identical map tasks.  At least one (possibly empty) chunk is returned.
    """
    if mappers < 1:
        raise ValueError("mappers must be >= 1")
    count = min(mappers, len(rows)) or 1
    return [rows[index::count] for index in range(count)]
