"""The sharded persistent service tier: warm worker shards behind RPC.

Layers, bottom up:

* :mod:`~repro.service.sharded.rpc` — length-prefixed pickle framing and the
  message vocabulary;
* :mod:`~repro.service.sharded.worker` — the long-lived worker process: a
  blocking recv loop over one shard's resident column blocks;
* :mod:`~repro.service.sharded.routing` — placement as a pure function of
  :func:`~repro.exec.partition.stable_hash` and the shard count;
* :mod:`~repro.service.sharded.cluster` — the asyncio supervisor: pipelined
  fan-out, death detection, respawn + shard reload + retry-once;
* :mod:`~repro.service.sharded.backend` — the multi-process execution
  backend, ``"parallel"`` and ``"sharded"`` by name (bit-identical outputs
  and simulated metrics to the serial reference);
* :mod:`~repro.service.sharded.frontend` — the asyncio front-end over the
  query service's admission control and deadlines.

See ``docs/service.md`` for the tier architecture and failure semantics.
"""

from ..service import RequestTimeoutError, ServiceError, ServiceOverloadedError
from .backend import ShardedBackend
from .cluster import ShardCluster, ShardedExecutionError, WorkerCrashedError
from .frontend import ShardedService
from .routing import chunk_assignment, shard_for_chunk
from .rpc import WorkerDied

__all__ = [
    "RequestTimeoutError",
    "ServiceError",
    "ServiceOverloadedError",
    "ShardCluster",
    "ShardedBackend",
    "ShardedExecutionError",
    "ShardedService",
    "WorkerCrashedError",
    "WorkerDied",
    "chunk_assignment",
    "shard_for_chunk",
]
