"""Pluggable execution backends for MR programs.

This package is the seam between *planning* (strategies, Gumbo, the dynamic
executor — all of which produce :class:`~repro.mapreduce.program.MRProgram`
DAGs) and *running*:

* ``"serial"`` — :class:`SimulatedBackend`, the seed's serial in-process
  engine behind the backend interface;
* ``"parallel"`` / ``"sharded"`` — two names for :class:`ShardedBackend`
  (from :mod:`repro.service.sharded`), the one multi-process runtime:
  long-lived worker processes each holding a hash-placed share of the
  database's map chunks warm across requests, spoken to over
  length-prefixed RPC, running a kernel job's ``map_batch`` per chunk;
  jobs without a batch kernel run through the serial engine on the driver.

All backends produce bit-identical output relations and simulated Hadoop
metrics; the multi-process backend additionally uses real hardware
parallelism and records measured wall-clock times per dispatch and per job.
Select a backend by name through :func:`make_backend`,
:class:`~repro.core.gumbo.Gumbo`, or the CLI's ``--backend`` flag.  See
``docs/backends.md`` for the full contract.

The backend classes are loaded lazily (PEP 562) so that
:mod:`repro.mapreduce.engine` can import the shared partitioning helpers
from this package without an import cycle.
"""

from __future__ import annotations

from .base import (
    BACKEND_NAMES,
    PARALLEL,
    SERIAL,
    SHARDED,
    ExecutionBackend,
    make_backend,
    normalise_backend,
)
from .partition import map_task_chunks, partition_index, stable_hash
from .shm import DATA_PLANES, SegmentPool, normalise_data_plane

__all__ = [
    "BACKEND_NAMES",
    "DATA_PLANES",
    "PARALLEL",
    "SERIAL",
    "SHARDED",
    "ExecutionBackend",
    "SegmentPool",
    "ShardedBackend",
    "SimulatedBackend",
    "make_backend",
    "map_task_chunks",
    "normalise_backend",
    "normalise_data_plane",
    "partition_index",
    "stable_hash",
]


def __getattr__(name: str):
    if name == "SimulatedBackend":
        from .simulated import SimulatedBackend

        return SimulatedBackend
    if name == "ShardedBackend":
        from ..service.sharded.backend import ShardedBackend

        return ShardedBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
