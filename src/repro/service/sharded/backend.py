"""The multi-process execution backend: batch kernels over resident chunks.

:class:`ShardedBackend` is the one backend that runs work in other OS
processes, the way the paper's Gumbo fans tasks out across its Hadoop
cluster; ``"parallel"`` and ``"sharded"`` are two names for it (see
:func:`repro.exec.base.make_backend`).  It drives a
:class:`~repro.service.sharded.cluster.ShardCluster` of long-lived workers
and *places* map chunks instead of shipping them per run: chunk ``i`` of
relation ``R`` permanently belongs to shard ``shard_for_chunk("R", i,
shards)`` (a pure function of :func:`~repro.exec.partition.stable_hash`),
the owning worker keeps the chunk's
:class:`~repro.model.relation.ColumnBlock` resident across requests, and a
map task names ``(relation, chunk, version)`` instead of carrying rows.

What runs where follows the one rule every backend uses
(:func:`~repro.mapreduce.kernels.use_kernel`):

* a **kernel** job is the engine's
  :meth:`~repro.mapreduce.engine.MapReduceEngine.run_job_kernel` with the
  workers as its map phase: one task per map chunk — the same strided
  chunks the serial engine iterates — runs ``job.map_batch`` over the
  resident (or attached) block and replies with the chunk's partial
  :class:`~repro.mapreduce.kernels.MapBatch`; the partials' accounting is
  summed and ``reduce_batch`` run on the driver.  This module supplies only
  *where ``map_batch`` runs*: the resident-reference vs inline-payload
  choice per input part, the routing, and one pipelined
  ``cluster.run_tasks`` round trip per job;
* any other job (``kernel_mode="off"``, baseline jobs, user jobs without a
  kernel) runs through the reference interpreter,
  :meth:`~repro.mapreduce.engine.MapReduceEngine.run_job`, on the driver —
  no worker ever interprets tuple-at-a-time.

Either way outputs and simulated Hadoop metrics are bit-identical to
:class:`~repro.exec.simulated.SimulatedBackend` by construction: chunking,
accounting and ``reduce_batch`` are the engine's own.  Only wall-clock
metrics (and which process computed what) differ.

Warm-shard detection is copy-on-write identity: a relation's cached column
block survives :meth:`Database.copy`, so ``resident token is
relation.columns()`` means "these exact rows are already on the workers" —
repeated requests over one database ship nothing, while any mutation
changes the block and forces a re-ship.  Relations that exist only *inside*
one program run (intermediates of later levels) are shipped inline with
their tasks and never become resident.  Both resident loads and inline
payloads travel over the configured *data plane* (:mod:`repro.exec.shm`).

Kernel jobs are shipped by pickling, so they must be picklable (all jobs in
this package are: they hold only query dataclasses and options, never
closures).  The job is pickled once per job run, the blob shared by every
task, and workers memoise the deserialised job per blob — compiled kernel
included.
"""

from __future__ import annotations

import pickle
from functools import partial
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ...exec.base import SHARDED, ExecutionBackend
from ...exec.shm import (
    SegmentPool,
    encode_block,
    normalise_data_plane,
    payload_segment,
)
from ...mapreduce.counters import WallClockMetrics
from ...mapreduce.engine import InputPart, JobResult, MapReduceEngine
from ...mapreduce.job import MapReduceJob
from ...mapreduce.kernels import MapBatch, use_kernel
from ...model.database import Database
from ... import obs
from .cluster import ShardCluster
from .routing import shard_for_chunk
from .rpc import MapTask


class ShardedBackend(ExecutionBackend):
    """Execute MR jobs on a persistent, hash-sharded worker cluster.

    Parameters
    ----------
    engine:
        The engine supplying cluster config, constants and the simulated
        metric accounting (paper-cluster default when omitted).
    shards:
        Number of long-lived worker processes (default 2).  A *placement*
        parameter: outputs and simulated metrics are identical for every
        value, but which worker holds which chunk — and therefore what stays
        warm — follows from it.
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

    #: ``make_backend`` overwrites this with the name it was asked for.
    name = SHARDED

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
        self.engine = engine or MapReduceEngine()
        self.data_plane = self._cluster.data_plane
        self.shards = self._cluster.shards
        #: Driver-owned segments of *inline* task payloads (program
        #: intermediates), each released when its map phase's tasks are back;
        #: resident chunks live in the cluster's own pool.
        self._segments = SegmentPool()

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

    # -- single job ----------------------------------------------------------------

    def run_job(self, job: MapReduceJob, database: Database) -> JobResult:
        """Execute one MapReduce job: kernels in the workers, the rest here.

        A kernel job is pickled once and its map phase fanned out; any other
        job is the engine's reference interpreter on the driver.  Outputs
        and simulated metrics are identical either way, and the measured
        times are stamped under this backend's name.
        """
        wall = WallClockMetrics(backend=self.name, workers=self.shards)
        start = perf_counter()
        if use_kernel(job):
            job_blob = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
            result = self.engine.run_job_kernel(
                job, database, partial(self._map_phase, job_blob, wall), wall
            )
        else:
            result = self.engine.run_job(job, database)
        wall.elapsed_s = perf_counter() - start
        result.metrics.wall = wall
        return result

    def _map_phase(
        self, job_blob: bytes, wall: WallClockMetrics, parts: List[InputPart]
    ) -> List[List[MapBatch]]:
        """One ``map_batch`` task per chunk of every input part, on the shards.

        A part whose relation is resident is named by the ship version its
        shards hold; any other part's chunks are encoded for the data plane
        and travel inline, their segments released once the tasks are back
        — or shipping or a task failed: ``run_tasks`` handles the death →
        respawn → retry-once contract internally, so the workers have
        materialised what they need by the time it returns.  A missing or
        empty relation yields no task at all: the serial engine still
        accounts one mapper over zero rows, but zero rows emit zero pairs.

        Returns, per part, its tasks' partial batches in chunk order (so
        flattening the parts gives the order the serial engine processes
        chunks in).
        """
        traced = obs.tracing_enabled()
        routed: List[Tuple[int, MapTask]] = []
        task_parts: List[int] = []
        shipped_segments: List[str] = []
        per_part: List[List[MapBatch]] = [[] for _ in parts]
        try:
            for part_index, (relation, partition) in enumerate(parts):
                if relation is None or not len(relation):
                    continue
                name = partition.relation
                resident = self._cluster.resident_info(name, relation.columns())
                if resident is not None:
                    version, chunk_count = resident
                    payloads: List[object] = [None] * chunk_count
                else:
                    version, payloads = 0, []
                    for block in relation.column_chunks(partition.mappers):
                        payload = encode_block(block, self._segments, self.data_plane)
                        payloads.append(payload)
                        segment = payload_segment(payload)
                        if segment is not None:
                            shipped_segments.append(segment)
                for index, payload in enumerate(payloads):
                    task = MapTask(
                        task_id=len(routed),
                        job_blob=job_blob,
                        relation=name,
                        chunk_index=index,
                        version=version,
                        payload=payload,
                        traced=traced,
                    )
                    routed.append((shard_for_chunk(name, index, self.shards), task))
                    task_parts.append(part_index)
            if not routed:
                return per_part
            tracer = obs.current_tracer()
            begin = perf_counter()
            with obs.span(
                "shard_fanout", tasks=len(routed), shards=self.shards
            ) as fanout_span:
                # Replies come back sorted by task id — the order built above.
                responses = self._cluster.run_tasks(routed)
                if tracer is not None:
                    for response in responses:
                        if response.span is not None:
                            tracer.adopt_payload(response.span, fanout_span.span_id)
            wall.record_wave("map", len(routed), perf_counter() - begin)
        finally:
            for segment in shipped_segments:
                self._segments.release(segment)
        for part_index, response in zip(task_parts, responses):
            per_part[part_index].append(response.result)
        return per_part

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, shards={self.shards})"
