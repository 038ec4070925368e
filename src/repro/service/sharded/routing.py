"""Shard placement: pure functions of ``stable_hash`` and the shard count.

The sharded tier places work at the granularity the execution semantics
already define — the map *chunk* (the serial engine's strided column
chunks).  Placement reuses :func:`~repro.exec.partition.partition_index`,
i.e. the same CRC-32-of-``repr`` hash that partitions keys over reducers, so
routing is deterministic across processes, runs and ``PYTHONHASHSEED``
values: chunk ``i`` of relation ``R`` lives on ``shard_for_chunk("R", i,
shards)`` — every worker owns a hash-spread slice of every relation, so each
map task runs wholly on the worker already holding its rows warm.

Because placement is a pure function, "rebalancing" on a shard-count change
is simply re-evaluating it: :func:`chunk_assignment` for the new count *is*
the new layout, and the cluster reloads workers to match.
"""

from __future__ import annotations

from typing import Dict, List

from ...exec.partition import partition_index


def shard_for_chunk(relation: str, chunk_index: int, shards: int) -> int:
    """The shard owning map chunk *chunk_index* of *relation*."""
    return partition_index((relation, chunk_index), shards)


def chunk_assignment(
    relation: str, chunk_count: int, shards: int
) -> Dict[int, List[int]]:
    """shard → sorted chunk indices of *relation*, for *chunk_count* chunks."""
    assignment: Dict[int, List[int]] = {shard: [] for shard in range(shards)}
    for index in range(chunk_count):
        assignment[shard_for_chunk(relation, index, shards)].append(index)
    return assignment
