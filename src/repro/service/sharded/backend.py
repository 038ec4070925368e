"""The ``"sharded"`` execution backend: persistent workers, warm shards.

:class:`ShardedBackend` plugs the shard cluster into the execution-backend
seam as a second *transport* of the shared fan-out job
(:class:`~repro.exec.fanout.FanoutBackend`).  Where the parallel transport
ships every map chunk to a stateless pool worker on every run, this one
*places* chunks: chunk ``i`` of relation ``R`` permanently belongs to shard
``shard_for_chunk("R", i, shards)`` (a pure function of
:func:`~repro.exec.partition.stable_hash`), the owning worker keeps the
chunk's :class:`~repro.model.relation.ColumnBlock` resident across requests,
and a map task names ``(relation, chunk, version)`` instead of carrying
rows — a kernel job's ``map_batch`` then runs over the resident block and
its memoised key tuples.  The reduce buckets of interpreted jobs are placed
the same way by bucket index.  What this module adds to the shared driver
is exactly that: the resident-reference vs inline-payload choice per input
part, the routing, one ``cluster.run_tasks`` round trip per phase, and
:meth:`ensure_loaded`.

Bit-identical parity with the serial reference is inherited, not re-proven:
everything that decides an output or a simulated metric is the fan-out
driver's, shared with the parallel backend.  Only wall-clock metrics (and
which process computed what) differ.

Warm-shard detection is copy-on-write identity: a relation's cached column
block survives :meth:`Database.copy`, so ``resident token is
relation.columns()`` means "these exact rows are already on the workers" —
repeated service requests over one database ship nothing, while any
mutation changes the block and forces a re-ship.  Relations that exist only
*inside* one program run (intermediates of later levels) are shipped inline
with their tasks and never become resident.

Both resident loads and inline payloads travel over the configured *data
plane* (:mod:`repro.exec.shm`): on the shm plane the RPC frames carry tiny
segment descriptors instead of pickled rows, and a respawned worker's
resident reload re-attaches the cluster-owned segments instead of
re-shipping them.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence

from ...exec.base import SHARDED
from ...exec.fanout import FanoutBackend
from ...exec.shm import normalise_data_plane
from ...mapreduce.counters import WallClockMetrics
from ...mapreduce.engine import MapReduceEngine
from ...model.database import Database
from ...model.relation import Relation
from ... import obs
from .cluster import ShardCluster
from .routing import shard_for_bucket, shard_for_chunk
from .rpc import MapTask, ReduceTask


class ShardedBackend(FanoutBackend):
    """Execute MR jobs on a persistent, hash-sharded worker cluster.

    Parameters
    ----------
    engine:
        The engine supplying cluster config, constants and the simulated
        metric accounting (paper-cluster default when omitted).
    shards:
        Number of long-lived worker processes (default 2).  Unlike the
        parallel pool this is a *placement* parameter: outputs and simulated
        metrics are identical for every value, but which worker holds which
        chunk — and therefore what stays warm — follows from it.
    start_method:
        ``multiprocessing`` start method (platform default when omitted).
    cluster:
        An existing :class:`ShardCluster` to drive (it is then *not* owned:
        :meth:`close` leaves it running).  Mutually exclusive sizing with
        *shards*.
    data_plane:
        How chunk payloads cross the RPC boundary (``"shm"``/``"pickle"``/
        ``"auto"``, see :mod:`repro.exec.shm`).  With an external *cluster*
        the cluster's plane governs; passing a conflicting value raises.
    """

    name = SHARDED
    path = "sharded"
    width_attr = "shards"

    def __init__(
        self,
        engine: Optional[MapReduceEngine] = None,
        shards: Optional[int] = None,
        start_method: Optional[str] = None,
        cluster: Optional[ShardCluster] = None,
        data_plane: Optional[str] = None,
    ) -> None:
        if cluster is not None:
            if shards is not None and shards != cluster.shards:
                raise ValueError(
                    f"cluster has {cluster.shards} shards, shards={shards} given"
                )
            if (
                data_plane is not None
                and normalise_data_plane(data_plane) != cluster.data_plane
            ):
                raise ValueError(
                    f"cluster uses the {cluster.data_plane!r} data plane, "
                    f"data_plane={data_plane!r} given"
                )
            self._cluster = cluster
            self._owns_cluster = False
        else:
            self._cluster = ShardCluster(
                shards if shards is not None else 2,
                start_method=start_method,
                data_plane=normalise_data_plane(data_plane),
            )
            self._owns_cluster = True
        # The driver's shipping pool carries the *inline* task payloads
        # (program intermediates); resident chunks live in the cluster's own.
        super().__init__(engine, self._cluster.data_plane)
        self.shards = self._cluster.shards

    @property
    def cluster(self) -> ShardCluster:
        """The worker cluster (exposed for supervision and tests)."""
        return self._cluster

    def close(self) -> None:
        """Shut the owned cluster down (idempotent; a later run restarts it)."""
        if self._owns_cluster:
            self._cluster.close()
        self._segments.close_all()

    # -- shard loading ------------------------------------------------------------

    def ensure_loaded(self, database: Database) -> int:
        """Make every non-empty relation of *database* resident on its shards.

        Relations whose column block is already resident (identity check,
        safe across copy-on-write copies) cost nothing; changed or new ones
        are re-chunked with the engine's own mapper arithmetic and shipped.
        Returns the number of relations (re-)shipped.
        """
        shipped = 0
        for relation in database:
            if len(relation) == 0:
                continue  # empty chunks are synthesised locally, no shipping
            block = relation.columns()
            if self._cluster.resident_info(relation.name, block) is not None:
                continue
            mappers = self.engine.mappers_for(relation.size_mb())
            chunks = relation.column_chunks(mappers)
            self._cluster.load_relation(relation.name, chunks, token=block)
            shipped += 1
        return shipped

    def prepare(self, database: Database) -> Dict[str, object]:
        """Make the base database resident before a program's first level.

        Free when the workers are already warm from a previous request over
        the same data; intermediates produced between levels ship inline
        with their tasks.
        """
        return {
            "shards": self.shards,
            "shipped_relations": self.ensure_loaded(database),
        }

    # -- the transport: placed chunks, one round trip per phase -------------------

    def chunk_sources(
        self, relation_name: str, relation: Optional[Relation], mappers: int
    ) -> Sequence[object]:
        """Resident references when the shards are warm, inline chunks otherwise.

        A resident chunk is named by the ship version (an ``int``) its shard
        holds.  A missing or empty relation yields no source at all: the serial
        engine still accounts one mapper over zero rows, but zero rows emit
        zero pairs, so the single empty chunk needs no task.
        """
        if relation is None or not len(relation):
            return []
        resident = self._cluster.resident_info(relation_name, relation.columns())
        if resident is not None:
            version, chunk_count = resident
            return [version] * chunk_count
        return relation.column_chunks(mappers)

    def _route(self, phase: str, task_id: int, task: tuple):
        """One driver task as ``(owning shard, RPC message)``."""
        if phase == "map":
            job_blob, relation_name, index, source, traced = task
            resident = isinstance(source, int)
            return shard_for_chunk(relation_name, index, self.shards), MapTask(
                task_id=task_id,
                job_blob=job_blob,
                relation=relation_name,
                chunk_index=index,
                version=source if resident else 0,
                payload=None if resident else source,
                traced=traced,
            )
        job_blob, index, items, traced = task
        return shard_for_bucket(index, self.shards), ReduceTask(
            task_id=task_id, job_blob=job_blob, items=items, traced=traced
        )

    def dispatch(
        self, phase: str, tasks: List[tuple], wall: WallClockMetrics
    ) -> List[object]:
        """Route one phase's tasks to their shards and adopt worker spans.

        ``run_tasks`` returns the replies sorted by ``task_id`` — the task
        order — and handles the death → respawn → retry-once contract
        internally, so inline segments may be freed as soon as it returns.
        """
        if not tasks:
            return []
        routed = [
            self._route(phase, task_id, task) for task_id, task in enumerate(tasks)
        ]
        tracer = obs.current_tracer()
        begin = perf_counter()
        with obs.span(
            "shard_fanout", phase=phase, tasks=len(tasks), shards=self.shards
        ) as fanout_span:
            responses = self._cluster.run_tasks(routed)
            if tracer is not None:
                for response in responses:
                    if response.span is not None:
                        tracer.adopt_payload(response.span, fanout_span.span_id)
        wall.record_wave(phase, len(tasks), perf_counter() - begin)
        return [response.result for response in responses]
